//! Disk-native paged record store: the third storage backend.
//!
//! The key-value and relational backends keep the dataset in RAM and use
//! their logs only for replay. This crate stores records *on disk* in
//! slotted 4 KiB pages behind a fixed-capacity buffer pool, indexed by a
//! B+tree keyed by record key, with a physical write-ahead log providing
//! atomic multi-page commits and torn-write protection.
//!
//! # On-disk layout
//!
//! A store is a directory with two files:
//!
//! * `pages.db` — an array of [`page::PAGE_SIZE`] pages. Page 0 is the meta
//!   page (tree root, freelist head, allocation high-water mark, logical
//!   generation, record count); other pages are B+tree internal nodes,
//!   leaves, overflow-chain pages for large values, or freelist links. The
//!   last 8 bytes of every page are a SipHash-2-4 checksum over the page
//!   id and payload, so bit rot and misdirected writes are detected at
//!   read time. See [`page`] for the exact byte spec.
//! * `wal.log` — checksummed page-image frames (see [`wal`]). A commit
//!   appends every page the transaction dirtied — the meta page always
//!   among them — with the COMMIT flag on the final frame. A transaction
//!   is one [`PageStore::apply`] batch; every other write is a
//!   one-element batch. The data file is only touched at checkpoint:
//!   flush the newest image of every WAL-resident page, `fsync` the data
//!   file, then truncate the WAL.
//!
//! Recovery scans the WAL, truncates the first torn or corrupt frame and
//! everything after it, discards any trailing frames past the last COMMIT,
//! and serves subsequent reads from the surviving frames (newest image
//! wins) falling back to the data file. A crash at *any* byte boundary
//! therefore lands the store on some committed prefix of its history —
//! never a half-applied operation.
//!
//! # Semantics
//!
//! Expiry mirrors the key-value store exactly — lazy reap-on-access with
//! an inclusive deadline boundary (`deadline <= now` is expired), reads
//! destroying expired records and notifying the expiry listener, and
//! `record_count` counting past-due-but-unreaped entries — so the
//! store-equivalence proptest can demand byte-identical behaviour from
//! both backends. Record values are sealed at rest with the workspace
//! [`crypto::Volume`] (ChaCha20 + SipHash tag) by default.

pub mod page;
pub mod pool;
pub mod wal;

use page::{
    internal_size, leaf_size, page_type, parse_free, parse_internal, parse_leaf, parse_overflow,
    serialize_free, serialize_internal, serialize_leaf, serialize_overflow, verify_page, Internal,
    Leaf, LeafEntry, Meta, ValueRef, INLINE_VALUE_MAX, OVERFLOW_DATA, T_INTERNAL, T_LEAF,
};
pub use page::{KEY_MAX, PAGE_SIZE};
pub use pool::PoolStats;

use clock::SharedClock;
use crypto::Volume;
use parking_lot::Mutex;
use pool::{PageImage, Pool};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store-level errors. `Corrupt` is the load-bearing variant: every
/// checksum mismatch, truncated field, or structural impossibility in an
/// on-disk byte surfaces here — never as a panic and never as wrong data.
#[derive(Debug)]
pub enum Error {
    Io(std::io::Error),
    Corrupt(String),
    /// Key longer than [`KEY_MAX`] bytes (tenant prefix included).
    KeyTooLong(usize),
}

impl Error {
    fn corrupt(msg: impl Into<String>) -> Error {
        Error::Corrupt(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "pagestore io: {e}"),
            Error::Corrupt(msg) => write!(f, "pagestore corrupt: {msg}"),
            Error::KeyTooLong(n) => write!(f, "pagestore key too long: {n} > {KEY_MAX}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Callback fired (with the logical key) whenever the store itself reaps
/// an expired record — lazily on access, during a scan, or in a purge.
pub type ExpiryListener = Arc<dyn Fn(&str) + Send + Sync>;

/// Tuning knobs. The defaults suit the conformance/benchmark scale; the
/// eviction-pressure suite runs with `pool_pages` at ~1% of the dataset.
#[derive(Debug, Clone)]
pub struct PageStoreConfig {
    /// Buffer-pool capacity in pages (min 2). 256 pages = 1 MiB resident.
    pub pool_pages: usize,
    /// Checkpoint (flush WAL images into the data file, truncate the WAL)
    /// once this many frames accumulate.
    pub checkpoint_frames: usize,
    /// `fsync` the WAL on every commit. Off by default (the benchmark
    /// posture, like the kvstore's everysec AOF); checkpoints always sync.
    pub fsync_wal: bool,
    /// Seal record values at rest with the workspace ChaCha20 volume.
    pub encrypt_at_rest: bool,
}

impl Default for PageStoreConfig {
    fn default() -> PageStoreConfig {
        PageStoreConfig {
            pool_pages: 256,
            checkpoint_frames: 512,
            fsync_wal: false,
            encrypt_at_rest: true,
        }
    }
}

/// How `open` came up: what recovery found in the WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryInfo {
    /// Committed frames replayed from the WAL.
    pub wal_frames: usize,
    /// Torn / uncommitted tail bytes truncated away.
    pub truncated_bytes: u64,
    /// Logical generation the store came up at.
    pub generation: u64,
}

impl fmt::Display for RecoveryInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered {} WAL frames (generation {}, {} torn bytes truncated)",
            self.wal_frames, self.generation, self.truncated_bytes
        )
    }
}

/// The deadline a [`BatchOp::Upsert`] stores its entry under.
#[derive(Debug, Clone, Copy)]
pub enum Deadline {
    /// This absolute deadline (`None`: the entry never expires).
    At(Option<u64>),
    /// Whatever the entry being replaced carries — lapsed deadlines
    /// included, none when the key is absent.
    Keep,
}

/// One write of a [`PageStore::apply`] batch.
#[derive(Debug, Clone, Copy)]
pub enum BatchOp<'a> {
    /// Erase the entry. Any physically present entry counts — expired
    /// but unreaped included — and the expiry listener stays silent,
    /// mirroring the kvstore's DEL exactly (it removes the dict entry
    /// whatever its deadline says; the engine's purge path relies on that
    /// count).
    Remove(&'a str),
    /// Insert or replace the entry. Always counts.
    Upsert {
        key: &'a str,
        value: &'a [u8],
        deadline: Deadline,
    },
}

impl BatchOp<'_> {
    fn key(&self) -> &[u8] {
        match self {
            BatchOp::Remove(key) | BatchOp::Upsert { key, .. } => key.as_bytes(),
        }
    }
}

/// Well-known at-rest sealing seed (benchmark posture, like the default
/// transport PSK; production would inject one).
const SEAL_SEED: &[u8] = b"pagestore-at-rest-volume-seed-v1";

const MAX_TREE_DEPTH: usize = 64;

/// Frames [`Inner::commit`] encodes per `write`: the encode buffer stays
/// this small however many pages a batch dirtied.
const WAL_CHUNK_FRAMES: usize = 16;

struct TxState {
    dirty: HashMap<u32, Vec<u8>>,
    meta: Meta,
}

struct Inner {
    data: File,
    wal: File,
    wal_len: u64,
    /// page id -> offset of its newest committed image inside `wal.log`.
    wal_index: HashMap<u32, u64>,
    /// Reused frame-encode buffer, at most [`WAL_CHUNK_FRAMES`] frames.
    wal_buf: Vec<u8>,
    pool: Pool,
    meta: Meta,
    config: PageStoreConfig,
    volume: Option<Volume>,
    recovery: RecoveryInfo,
}

/// The disk-native paged store. All operations are internally synchronized
/// (one mutex; parallelism comes from sharding, as everywhere else in the
/// workspace) and safe to share via `Arc`.
pub struct PageStore {
    inner: Mutex<Inner>,
    clock: SharedClock,
    listener: Mutex<Option<ExpiryListener>>,
    dir: PathBuf,
}

impl PageStore {
    /// Open (or create) a store in `dir`, running WAL recovery.
    pub fn open(
        dir: impl AsRef<Path>,
        config: PageStoreConfig,
        clock: SharedClock,
    ) -> Result<Arc<PageStore>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("pages.db"))?;
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("wal.log"))?;

        let mut wal_bytes = Vec::new();
        wal.read_to_end(&mut wal_bytes)?;
        let scan = wal::scan(&wal_bytes);
        let truncated = (wal_bytes.len() as u64).saturating_sub(scan.valid_len);
        let wal_len = if scan.valid_len < wal::WAL_HEADER as u64 {
            // Missing or unusable header: start the log over.
            wal.set_len(0)?;
            wal.seek(SeekFrom::Start(0))?;
            wal.write_all(&wal::header_bytes())?;
            wal::WAL_HEADER as u64
        } else {
            // Physically drop the torn / uncommitted tail so appends never
            // interleave with garbage.
            wal.set_len(scan.valid_len)?;
            scan.valid_len
        };
        wal.sync_all()?;

        let meta = if let Some(&off) = scan.index.get(&0) {
            let image = &wal_bytes[off as usize..off as usize + PAGE_SIZE];
            Meta::parse(image)?
        } else {
            let data_len = data.metadata()?.len();
            if data_len >= PAGE_SIZE as u64 {
                let mut image = vec![0u8; PAGE_SIZE];
                data.seek(SeekFrom::Start(0))?;
                data.read_exact(&mut image)?;
                Meta::parse(&image)?
            } else {
                // Fresh store: write the initial meta page directly (the
                // only non-WAL data-file write; nothing precedes it).
                let meta = Meta::fresh();
                data.seek(SeekFrom::Start(0))?;
                data.write_all(&meta.serialize())?;
                data.sync_all()?;
                meta
            }
        };

        let recovery = RecoveryInfo {
            wal_frames: scan.frames,
            truncated_bytes: truncated,
            generation: meta.generation,
        };
        let volume = config.encrypt_at_rest.then(|| Volume::new(SEAL_SEED));
        Ok(Arc::new(PageStore {
            inner: Mutex::new(Inner {
                data,
                wal,
                wal_len,
                wal_index: scan.index,
                wal_buf: Vec::new(),
                pool: Pool::new(config.pool_pages),
                meta,
                config,
                volume,
                recovery,
            }),
            clock,
            listener: Mutex::new(None),
            dir,
        }))
    }

    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the last `open` replayed from the WAL.
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.lock().recovery
    }

    pub fn set_expiry_listener(&self, listener: ExpiryListener) {
        *self.listener.lock() = Some(listener);
    }

    fn notify_expired(&self, keys: &[String]) {
        if keys.is_empty() {
            return;
        }
        let listener = self.listener.lock().clone();
        if let Some(listener) = listener {
            for key in keys {
                listener(key);
            }
        }
    }

    fn now_ms(&self) -> u64 {
        self.clock.now().as_millis()
    }

    /// Point lookup with kvstore-style lazy reaping: an expired record is
    /// destroyed (a real committed transaction), the expiry listener
    /// fires, and the read reports absence. A one-element
    /// [`Self::get_many`].
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.get_many(&[key])?.pop().flatten())
    }

    /// [`Self::get`] for each of `keys`, in order, under one hold of the
    /// store mutex and with **one root-to-leaf descent per touched leaf**
    /// when `keys` is sorted: a descent serves the run of keys that falls
    /// inside its leaf's key range. Expired entries met on the way are
    /// collected, reaped in one transaction after the walk, and reported
    /// to the expiry listener — as [`Self::scan`] does.
    pub fn get_many<K: AsRef<str>>(&self, keys: &[K]) -> Result<Vec<Option<Vec<u8>>>> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let mut values = Vec::with_capacity(keys.len());
        let mut expired = Vec::new();
        while values.len() < keys.len() {
            let first = keys[values.len()].as_ref().as_bytes();
            let Some(at) = inner.descend(None, first)? else {
                values.resize(keys.len(), None); // empty tree
                break;
            };
            while let Some(key) = keys.get(values.len()).map(AsRef::as_ref) {
                if key.as_bytes() < first || !below_fence(&at.upper, key.as_bytes()) {
                    break;
                }
                values.push(match at.entry(key.as_bytes()) {
                    None => None,
                    Some(entry) if is_expired(entry.deadline_ms, now) => {
                        expired.push(key.to_string());
                        None
                    }
                    Some(entry) => {
                        let stored = inner.load_value(None, &entry.value)?;
                        inner.unseal(&stored)?
                    }
                });
            }
        }
        inner.reap(&expired)?;
        drop(inner);
        self.notify_expired(&expired);
        Ok(values)
    }

    /// Insert a fresh record. Returns `false` when a *live* record already
    /// holds the key (the caller's AlreadyExists); an expired occupant is
    /// lazily reaped first — exactly the kvstore's EXISTS-probe semantics.
    pub fn insert(&self, key: &str, value: &[u8], deadline_ms: Option<u64>) -> Result<bool> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let occupant = inner.lookup(key.as_bytes())?;
        let reaped = match &occupant {
            Some(e) if !is_expired(e.deadline_ms, now) => return Ok(false),
            Some(_) => true,
            None => false,
        };
        inner.apply(&[BatchOp::Upsert {
            key,
            value,
            deadline: Deadline::At(deadline_ms),
        }])?;
        drop(inner);
        if reaped {
            self.notify_expired(&[key.to_string()]);
        }
        Ok(true)
    }

    /// Run `ops` as **one transaction**: every op lands or none does, on
    /// disk and after any crash. The store mutex is taken once; ops are
    /// applied in key order (ops on the same key keep their order), one
    /// root-to-leaf descent per touched leaf; the WAL gets one append,
    /// one COMMIT frame, one generation bump and — under `fsync_wal` — one
    /// `sync_data`. Returns how many ops counted (see [`BatchOp`]). A
    /// batch that changes nothing commits nothing.
    pub fn apply(&self, ops: &[BatchOp<'_>]) -> Result<usize> {
        self.inner.lock().apply(ops)
    }

    /// Insert-or-replace — the rewrite path, where the caller owns
    /// deadline policy. A one-element [`Self::apply`].
    pub fn upsert(&self, key: &str, value: &[u8], deadline: Deadline) -> Result<()> {
        let op = BatchOp::Upsert {
            key,
            value,
            deadline,
        };
        self.apply(&[op]).map(|_| ())
    }

    /// Erase a record, reporting whether an entry was physically present.
    /// A one-element [`Self::apply`].
    pub fn remove(&self, key: &str) -> Result<bool> {
        Ok(self.apply(&[BatchOp::Remove(key)])? == 1)
    }

    /// The record's native absolute deadline, side-effect-free: an expired
    /// but unreaped record still reports its (lapsed) deadline, exactly
    /// like the kvstore's pure `expiry_at` probe.
    pub fn deadline_ms(&self, key: &str) -> Result<Option<u64>> {
        let mut inner = self.inner.lock();
        Ok(inner.lookup(key.as_bytes())?.and_then(|e| e.deadline_ms))
    }

    /// Every live record in key order. Expired records encountered are
    /// reaped (one committed transaction) and the listener fires for each
    /// — the ordered-walk equivalent of the kvstore's cursor-walk-then-GET
    /// scan, which also destroys what it finds expired.
    pub fn scan(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let entries = inner.walk_leaves()?;
        let mut expired = Vec::new();
        let mut live = Vec::new();
        for entry in entries {
            if is_expired(entry.deadline_ms, now) {
                expired.push(utf8_key(&entry.key)?);
            } else {
                let key = utf8_key(&entry.key)?;
                let value = inner.load_value(None, &entry.value)?;
                let value = inner.unseal(&value)?.expect("sealed value present");
                live.push((key, value));
            }
        }
        inner.reap(&expired)?;
        drop(inner);
        self.notify_expired(&expired);
        Ok(live)
    }

    /// Keys past their deadline, **without** reaping — the side-effect-free
    /// enumeration the multi-tenant purge path requires.
    pub fn expired_keys(&self) -> Result<Vec<String>> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let entries = inner.walk_leaves()?;
        entries
            .into_iter()
            .filter(|e| is_expired(e.deadline_ms, now))
            .map(|e| utf8_key(&e.key))
            .collect()
    }

    /// Synchronously erase everything past its deadline.
    pub fn purge_expired(&self) -> Result<usize> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let keys: Vec<String> = inner
            .walk_leaves()?
            .into_iter()
            .filter(|e| is_expired(e.deadline_ms, now))
            .map(|e| utf8_key(&e.key))
            .collect::<Result<_>>()?;
        inner.reap(&keys)?;
        drop(inner);
        self.notify_expired(&keys);
        Ok(keys.len())
    }

    /// Entries in the tree, expired-but-unreaped included (DBSIZE
    /// semantics, matching the kvstore).
    pub fn record_count(&self) -> usize {
        self.inner.lock().meta.record_count as usize
    }

    /// Logical mutation generation: advanced by one per committed
    /// transaction — once per [`Self::apply`] batch however many records
    /// it wrote, and by lazy reaps too (they are real committed mutations
    /// here) — carried in every WAL commit frame, and reproduced
    /// exactly by recovery. This is what `persistence_generation` exposes
    /// so index snapshots can be trusted across restarts.
    pub fn generation(&self) -> u64 {
        self.inner.lock().meta.generation
    }

    /// Flush every WAL-resident page image into the data file, `fsync` it,
    /// and truncate the WAL. Idempotent; crash-safe at any point (the WAL
    /// is only truncated after the data file is durable).
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().checkpoint()
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().pool.stats()
    }

    /// Pages currently pinned in the buffer pool — the pin-leak probe: it
    /// must read 0 between operations.
    pub fn pinned_pages(&self) -> usize {
        self.inner.lock().pool.stats().pinned
    }

    /// Bytes on disk (data file + WAL).
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let data = inner.data.metadata().map(|m| m.len()).unwrap_or(0);
        data + inner.wal_len
    }

    /// Whether values are sealed at rest.
    pub fn encrypt_at_rest(&self) -> bool {
        self.inner.lock().volume.is_some()
    }
}

fn is_expired(deadline_ms: Option<u64>, now_ms: u64) -> bool {
    deadline_ms.is_some_and(|at| at <= now_ms)
}

fn utf8_key(key: &[u8]) -> Result<String> {
    String::from_utf8(key.to_vec()).map_err(|_| Error::corrupt("non-utf8 key bytes"))
}

/// Where a root-to-leaf descent ended.
struct Descent {
    /// The leaf's page id and parsed contents.
    pid: u32,
    leaf: Leaf,
    /// The internal pages above it, root first (split propagation).
    path: Vec<u32>,
    /// The tightest separator above the leaf's key range: every key below
    /// it that is not below the descent's own key lives in this leaf.
    /// `None` on the rightmost edge of the tree.
    upper: Option<Vec<u8>>,
}

impl Descent {
    fn entry(&self, key: &[u8]) -> Option<&LeafEntry> {
        let slot = self
            .leaf
            .entries
            .binary_search_by(|e| e.key.as_slice().cmp(key));
        slot.ok().map(|i| &self.leaf.entries[i])
    }
}

/// Is `key` — not below the key a descent was made for — still inside the
/// leaf that descent reached, given the leaf's [`Descent::upper`] fence?
fn below_fence(upper: &Option<Vec<u8>>, key: &[u8]) -> bool {
    upper.as_deref().is_none_or(|bound| key < bound)
}

impl Inner {
    fn begin(&self) -> TxState {
        TxState {
            dirty: HashMap::new(),
            meta: self.meta.clone(),
        }
    }

    /// Read a page image through pool -> WAL index -> data file.
    fn read_page(&mut self, pid: u32) -> Result<PageImage> {
        if let Some(image) = self.pool.get(pid) {
            return Ok(image);
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        if let Some(&off) = self.wal_index.get(&pid) {
            self.wal.seek(SeekFrom::Start(off))?;
            self.wal.read_exact(&mut buf)?;
        } else {
            if pid >= self.meta.page_count {
                return Err(Error::corrupt(format!("page {pid} beyond allocation")));
            }
            self.data
                .seek(SeekFrom::Start(pid as u64 * PAGE_SIZE as u64))?;
            self.data.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    Error::corrupt(format!("page {pid} beyond data file"))
                } else {
                    Error::Io(e)
                }
            })?;
        }
        verify_page(pid, &buf)?;
        let image: PageImage = Arc::new(buf);
        self.pool.insert(pid, Arc::clone(&image));
        Ok(image)
    }

    /// Run `f` over the page image with the pool slot pinned for the
    /// duration — the only way tree code touches page bytes, so pins
    /// structurally return to zero at the end of every operation.
    fn with_image<T>(
        &mut self,
        tx: Option<&TxState>,
        pid: u32,
        f: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        if let Some(tx) = tx {
            if let Some(image) = tx.dirty.get(&pid) {
                return f(image);
            }
        }
        let image = self.read_page(pid)?;
        self.pool.pin(pid);
        let out = f(&image);
        self.pool.unpin(pid);
        out
    }

    fn tx_alloc(&mut self, tx: &mut TxState) -> Result<u32> {
        if tx.meta.free_head != 0 {
            let pid = tx.meta.free_head;
            let next = self.with_image(Some(tx), pid, |img| parse_free(pid, img))?;
            tx.meta.free_head = next;
            Ok(pid)
        } else {
            let pid = tx.meta.page_count;
            tx.meta.page_count = tx
                .meta
                .page_count
                .checked_add(1)
                .ok_or_else(|| Error::corrupt("page id space exhausted"))?;
            Ok(pid)
        }
    }

    fn tx_free(&mut self, tx: &mut TxState, pid: u32) {
        tx.dirty.insert(pid, serialize_free(pid, tx.meta.free_head));
        tx.meta.free_head = pid;
    }

    /// Append all dirty pages (plus the meta page) as one WAL transaction
    /// under the next generation, install the clean images in the pool,
    /// and adopt the new meta.
    fn commit(&mut self, mut tx: TxState) -> Result<()> {
        tx.meta.generation += 1;
        tx.dirty.insert(0, tx.meta.serialize());
        let mut pids: Vec<u32> = tx.dirty.keys().copied().collect();
        pids.sort_unstable();
        if let Err(e) = self.append_frames(&pids, &tx) {
            // Some of the frames may sit in the file past `wal_len`. Cut
            // them off (best effort — `wal::scan` rejects the orphan by
            // its generation if this fails too) so a shorter successor
            // cannot leave this transaction's COMMIT frame behind it.
            let _ = self.wal.set_len(self.wal_len);
            return Err(e);
        }
        for &pid in &pids {
            self.wal_index
                .insert(pid, self.wal_len + wal::FRAME_HEADER as u64);
            self.wal_len += wal::FRAME_SIZE as u64;
        }
        for (pid, image) in tx.dirty {
            self.pool.install_committed(pid, Arc::new(image));
        }
        self.meta = tx.meta;
        let frames = (self.wal_len - wal::WAL_HEADER as u64) / wal::FRAME_SIZE as u64;
        if frames >= self.config.checkpoint_frames as u64 {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write `tx`'s images at `wal_len` in pid order, COMMIT on the last,
    /// [`WAL_CHUNK_FRAMES`] frames per `write`. `wal_len` and `wal_index`
    /// are the caller's to advance, once every byte is down.
    fn append_frames(&mut self, pids: &[u32], tx: &TxState) -> Result<()> {
        self.wal.seek(SeekFrom::Start(self.wal_len))?;
        let mut left = pids.len();
        for chunk in pids.chunks(WAL_CHUNK_FRAMES) {
            self.wal_buf.clear();
            for &pid in chunk {
                left -= 1;
                let image = &tx.dirty[&pid];
                wal::encode_frame(&mut self.wal_buf, pid, left == 0, tx.meta.generation, image);
            }
            self.wal.write_all(&self.wal_buf)?;
        }
        if self.config.fsync_wal {
            self.wal.sync_data()?;
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        if self.wal_index.is_empty() {
            return Ok(());
        }
        let mut image = vec![0u8; PAGE_SIZE];
        let entries: Vec<(u32, u64)> = self.wal_index.iter().map(|(&p, &o)| (p, o)).collect();
        for (pid, off) in entries {
            self.wal.seek(SeekFrom::Start(off))?;
            self.wal.read_exact(&mut image)?;
            self.data
                .seek(SeekFrom::Start(pid as u64 * PAGE_SIZE as u64))?;
            self.data.write_all(&image)?;
        }
        // Order matters: the WAL may only shrink after the data file is
        // durable, so a crash between the two replays the same images.
        self.data.sync_all()?;
        self.wal.set_len(wal::WAL_HEADER as u64)?;
        self.wal.sync_all()?;
        self.wal_len = wal::WAL_HEADER as u64;
        self.wal_index.clear();
        Ok(())
    }

    // ---- value storage -------------------------------------------------

    fn unseal(&self, stored: &[u8]) -> Result<Option<Vec<u8>>> {
        match &self.volume {
            Some(volume) => match volume.open(stored) {
                Ok((_, plaintext)) => Ok(Some(plaintext)),
                Err(e) => Err(Error::corrupt(format!("sealed value: {e:?}"))),
            },
            None => Ok(Some(stored.to_vec())),
        }
    }

    fn make_entry(
        &mut self,
        tx: &mut TxState,
        key: &str,
        value: &[u8],
        deadline_ms: Option<u64>,
    ) -> Result<LeafEntry> {
        let stored = match &self.volume {
            Some(volume) => {
                let sealed = volume.seal(tx.meta.seal_counter, value);
                tx.meta.seal_counter += 1;
                sealed
            }
            None => value.to_vec(),
        };
        let value_ref = if stored.len() <= INLINE_VALUE_MAX {
            ValueRef::Inline(stored)
        } else {
            // Spill to an overflow chain, head first in key order of
            // allocation (chunks are linked head -> tail).
            let chunks: Vec<&[u8]> = stored.chunks(OVERFLOW_DATA).collect();
            let pids: Vec<u32> = (0..chunks.len())
                .map(|_| self.tx_alloc(tx))
                .collect::<Result<_>>()?;
            for (i, chunk) in chunks.iter().enumerate() {
                let next = pids.get(i + 1).copied().unwrap_or(0);
                tx.dirty
                    .insert(pids[i], serialize_overflow(pids[i], next, chunk));
            }
            ValueRef::Overflow {
                total_len: stored.len() as u32,
                head: pids[0],
            }
        };
        Ok(LeafEntry {
            key: key.as_bytes().to_vec(),
            deadline_ms,
            value: value_ref,
        })
    }

    fn load_value(&mut self, tx: Option<&TxState>, value: &ValueRef) -> Result<Vec<u8>> {
        match value {
            ValueRef::Inline(v) => Ok(v.clone()),
            ValueRef::Overflow { total_len, head } => {
                let mut out = Vec::with_capacity(*total_len as usize);
                let mut pid = *head;
                let mut hops = 0u32;
                while pid != 0 {
                    hops += 1;
                    if hops
                        > self
                            .meta
                            .page_count
                            .max(tx.map_or(0, |t| t.meta.page_count))
                    {
                        return Err(Error::corrupt("overflow chain cycle"));
                    }
                    let (next, chunk) = self.with_image(tx, pid, |img| parse_overflow(pid, img))?;
                    out.extend_from_slice(&chunk);
                    pid = next;
                }
                if out.len() != *total_len as usize {
                    return Err(Error::corrupt(format!(
                        "overflow length {} != {total_len}",
                        out.len()
                    )));
                }
                Ok(out)
            }
        }
    }

    fn free_value(&mut self, tx: &mut TxState, value: &ValueRef) -> Result<()> {
        if let ValueRef::Overflow { head, .. } = value {
            let mut pid = *head;
            let mut chain = Vec::new();
            let mut hops = 0u32;
            while pid != 0 {
                hops += 1;
                if hops > tx.meta.page_count {
                    return Err(Error::corrupt("overflow chain cycle"));
                }
                let (next, _) = self.with_image(Some(tx), pid, |img| parse_overflow(pid, img))?;
                chain.push(pid);
                pid = next;
            }
            for pid in chain {
                self.tx_free(tx, pid);
            }
        }
        Ok(())
    }

    // ---- B+tree --------------------------------------------------------

    /// The one root-to-leaf descent: the leaf whose key range covers `key`
    /// (`None` while the tree is empty), side-effect-free.
    fn descend(&mut self, tx: Option<&TxState>, key: &[u8]) -> Result<Option<Descent>> {
        let mut pid = tx.map_or(self.meta.root, |t| t.meta.root);
        if pid == 0 {
            return Ok(None);
        }
        let mut path = Vec::new();
        let mut upper: Option<Vec<u8>> = None;
        loop {
            if path.len() > MAX_TREE_DEPTH {
                return Err(Error::corrupt("tree deeper than MAX_TREE_DEPTH (cycle?)"));
            }
            enum Step {
                Down(u32, Option<Vec<u8>>),
                Leaf(Leaf),
            }
            let step = self.with_image(tx, pid, |img| match page_type(pid, img)? {
                T_INTERNAL => {
                    let node = parse_internal(pid, img)?;
                    let (child, bound) = descend_child(&node, key, pid)?;
                    Ok(Step::Down(child, bound.map(<[u8]>::to_vec)))
                }
                T_LEAF => Ok(Step::Leaf(parse_leaf(pid, img)?)),
                t => Err(Error::corrupt(format!("page {pid}: type {t} in tree path"))),
            })?;
            match step {
                Step::Down(child, bound) => {
                    path.push(pid);
                    upper = bound.or(upper);
                    pid = child;
                }
                Step::Leaf(leaf) => {
                    return Ok(Some(Descent {
                        pid,
                        leaf,
                        path,
                        upper,
                    }))
                }
            }
        }
    }

    /// The committed entry for `key`, side-effect-free.
    fn lookup(&mut self, key: &[u8]) -> Result<Option<LeafEntry>> {
        Ok(self
            .descend(None, key)?
            .and_then(|at| at.entry(key).cloned()))
    }

    /// Run `ops` as one transaction — the store's only write path. Ops
    /// are stably sorted by key so each touched leaf is visited once;
    /// nothing is committed when nothing changed.
    fn apply(&mut self, ops: &[BatchOp<'_>]) -> Result<usize> {
        for op in ops {
            if op.key().len() > KEY_MAX {
                return Err(Error::KeyTooLong(op.key().len()));
            }
        }
        let mut sorted: Vec<&BatchOp<'_>> = ops.iter().collect();
        sorted.sort_by_key(|op| op.key());
        let mut tx = self.begin();
        let mut counted = 0;
        let mut rest = sorted.as_slice();
        while !rest.is_empty() {
            let used = self.apply_to_leaf(&mut tx, rest, &mut counted)?;
            rest = &rest[used..];
        }
        if !tx.dirty.is_empty() {
            self.commit(tx)?;
        }
        Ok(counted)
    }

    /// Erase `keys` in one transaction; the caller fires the expiry
    /// listener (outside the lock).
    fn reap(&mut self, keys: &[String]) -> Result<()> {
        let ops: Vec<BatchOp<'_>> = keys.iter().map(|key| BatchOp::Remove(key)).collect();
        self.apply(&ops).map(|_| ())
    }

    /// Descend once to the leaf covering `ops[0]` and apply the run of
    /// ops that falls inside that leaf's key range: one `parse_leaf`, one
    /// `serialize_leaf`. The run ends early at an upsert that overfills
    /// the leaf — it is then exactly one entry over, so the split's two
    /// halves fit — and the remaining ops descend afresh. No rebalancing
    /// on removal: freed space is reused by the freelist; empty leaves
    /// stay linked and are skipped by scans. Returns the ops consumed
    /// (at least one).
    fn apply_to_leaf(
        &mut self,
        tx: &mut TxState,
        ops: &[&BatchOp<'_>],
        counted: &mut usize,
    ) -> Result<usize> {
        if tx.meta.root == 0 {
            if matches!(ops[0], BatchOp::Remove(_)) {
                return Ok(1);
            }
            let pid = self.tx_alloc(tx)?;
            tx.dirty.insert(pid, serialize_leaf(pid, &Leaf::default()));
            tx.meta.root = pid;
        }
        let Descent {
            pid,
            mut leaf,
            mut path,
            upper,
        } = self
            .descend(Some(tx), ops[0].key())?
            .expect("the tree has a root");

        let mut used = 0;
        let mut changed = false;
        while used < ops.len() && leaf_size(&leaf) <= page::PAYLOAD {
            let key = ops[used].key();
            if !below_fence(&upper, key) {
                break;
            }
            let slot = leaf.entries.binary_search_by(|e| e.key.as_slice().cmp(key));
            match (ops[used], slot) {
                (BatchOp::Remove(_), Err(_)) => {}
                (BatchOp::Remove(_), Ok(i)) => {
                    let old = leaf.entries.remove(i);
                    self.free_value(tx, &old.value)?;
                    tx.meta.record_count = tx.meta.record_count.saturating_sub(1);
                    *counted += 1;
                    changed = true;
                }
                (
                    BatchOp::Upsert {
                        key,
                        value,
                        deadline,
                    },
                    slot,
                ) => {
                    let deadline_ms = match deadline {
                        Deadline::At(at) => *at,
                        Deadline::Keep => slot.ok().and_then(|i| leaf.entries[i].deadline_ms),
                    };
                    let entry = self.make_entry(tx, key, value, deadline_ms)?;
                    match slot {
                        Ok(i) => {
                            let old = std::mem::replace(&mut leaf.entries[i], entry);
                            self.free_value(tx, &old.value)?;
                        }
                        Err(i) => {
                            leaf.entries.insert(i, entry);
                            tx.meta.record_count += 1;
                        }
                    }
                    *counted += 1;
                    changed = true;
                }
            }
            used += 1;
        }
        if !changed {
            return Ok(used);
        }
        if leaf_size(&leaf) <= page::PAYLOAD {
            tx.dirty.insert(pid, serialize_leaf(pid, &leaf));
            return Ok(used);
        }

        // Split the leaf, then walk the path upward inserting separators.
        let (mut sep, mut new_child) = self.split_leaf(tx, pid, leaf)?;
        let mut left = pid;
        while let Some(parent_pid) = path.pop() {
            let mut node =
                self.with_image(Some(tx), parent_pid, |img| parse_internal(parent_pid, img))?;
            let idx = node
                .keys
                .partition_point(|k| k.as_slice() <= sep.as_slice());
            node.keys.insert(idx, sep.clone());
            node.children.insert(idx + 1, new_child);
            if internal_size(&node) <= page::PAYLOAD {
                tx.dirty
                    .insert(parent_pid, serialize_internal(parent_pid, &node));
                return Ok(used);
            }
            let (next_sep, next_child) = self.split_internal(tx, parent_pid, node)?;
            sep = next_sep;
            new_child = next_child;
            left = parent_pid;
        }
        // The split reached the root: grow the tree by one level.
        let new_root = self.tx_alloc(tx)?;
        let root_node = Internal {
            keys: vec![sep],
            children: vec![left, new_child],
        };
        tx.dirty
            .insert(new_root, serialize_internal(new_root, &root_node));
        tx.meta.root = new_root;
        Ok(used)
    }

    fn split_leaf(&mut self, tx: &mut TxState, pid: u32, leaf: Leaf) -> Result<(Vec<u8>, u32)> {
        let total: usize = leaf.entries.iter().map(LeafEntry::size).sum();
        let mut left_entries = Vec::new();
        let mut right_entries = Vec::new();
        let mut left_bytes = 0usize;
        for entry in leaf.entries {
            let size = entry.size();
            let fits = left_bytes + size + 7 <= page::PAYLOAD;
            if right_entries.is_empty() && left_bytes < total / 2 && fits {
                left_bytes += size;
                left_entries.push(entry);
            } else {
                right_entries.push(entry);
            }
        }
        debug_assert!(!left_entries.is_empty() && !right_entries.is_empty());
        let right_pid = self.tx_alloc(tx)?;
        let sep = right_entries[0].key.clone();
        let right = Leaf {
            next: leaf.next,
            entries: right_entries,
        };
        let left = Leaf {
            next: right_pid,
            entries: left_entries,
        };
        tx.dirty.insert(pid, serialize_leaf(pid, &left));
        tx.dirty
            .insert(right_pid, serialize_leaf(right_pid, &right));
        Ok((sep, right_pid))
    }

    fn split_internal(
        &mut self,
        tx: &mut TxState,
        pid: u32,
        node: Internal,
    ) -> Result<(Vec<u8>, u32)> {
        let mid = node.keys.len() / 2;
        let sep = node.keys[mid].clone();
        let right = Internal {
            keys: node.keys[mid + 1..].to_vec(),
            children: node.children[mid + 1..].to_vec(),
        };
        let left = Internal {
            keys: node.keys[..mid].to_vec(),
            children: node.children[..=mid].to_vec(),
        };
        let right_pid = self.tx_alloc(tx)?;
        tx.dirty.insert(pid, serialize_internal(pid, &left));
        tx.dirty
            .insert(right_pid, serialize_internal(right_pid, &right));
        Ok((sep, right_pid))
    }

    /// All entries in key order via the leftmost-leaf chain walk.
    fn walk_leaves(&mut self) -> Result<Vec<LeafEntry>> {
        if self.meta.root == 0 {
            return Ok(Vec::new());
        }
        // Descend to the leftmost leaf.
        let mut pid = self.meta.root;
        for _ in 0..MAX_TREE_DEPTH {
            enum Step {
                Down(u32),
                AtLeaf,
            }
            let step = self.with_image(None, pid, |img| match page_type(pid, img)? {
                T_INTERNAL => {
                    let node = parse_internal(pid, img)?;
                    let child = *node
                        .children
                        .first()
                        .ok_or_else(|| Error::corrupt(format!("page {pid}: no children")))?;
                    Ok(Step::Down(child))
                }
                T_LEAF => Ok(Step::AtLeaf),
                t => Err(Error::corrupt(format!("page {pid}: type {t} in tree path"))),
            })?;
            match step {
                Step::Down(child) => pid = child,
                Step::AtLeaf => break,
            }
        }
        // Follow the leaf chain, guarding against cycles in corrupt files.
        let mut out = Vec::new();
        let mut hops = 0u32;
        while pid != 0 {
            hops += 1;
            if hops > self.meta.page_count {
                return Err(Error::corrupt("leaf chain cycle"));
            }
            let leaf = self.with_image(None, pid, |img| parse_leaf(pid, img))?;
            out.extend(leaf.entries);
            pid = leaf.next;
        }
        Ok(out)
    }
}

/// The child of `node` covering `key`, and the separator that bounds the
/// child's key range from above (`None` for the rightmost child).
fn descend_child<'n>(node: &'n Internal, key: &[u8], pid: u32) -> Result<(u32, Option<&'n [u8]>)> {
    if node.children.len() != node.keys.len() + 1 || node.children.is_empty() {
        return Err(Error::corrupt(format!("page {pid}: malformed internal")));
    }
    let idx = node.keys.partition_point(|k| k.as_slice() <= key);
    Ok((node.children[idx], node.keys.get(idx).map(Vec::as_slice)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock::Clock;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pagestore-test-{}-{}-{}",
            tag,
            std::process::id(),
            seq
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, pool: usize) -> Arc<PageStore> {
        let config = PageStoreConfig {
            pool_pages: pool,
            ..Default::default()
        };
        PageStore::open(dir, config, clock::wall()).unwrap()
    }

    #[test]
    fn crud_roundtrip_with_ordered_scan() {
        let dir = scratch("crud");
        let store = open(&dir, 8);
        for i in (0..100).rev() {
            assert!(store
                .insert(&format!("k{i:03}"), format!("v{i}").as_bytes(), None)
                .unwrap());
        }
        assert!(!store.insert("k050", b"dup", None).unwrap(), "collision");
        assert_eq!(store.get("k007").unwrap().unwrap(), b"v7");
        assert_eq!(store.record_count(), 100);
        let scan = store.scan().unwrap();
        assert_eq!(scan.len(), 100);
        let keys: Vec<&str> = scan.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "scan must come back in key order");
        assert!(store.remove("k007").unwrap());
        assert!(!store.remove("k007").unwrap());
        assert_eq!(store.record_count(), 99);
    }

    #[test]
    fn big_values_spill_to_overflow_and_come_back() {
        let dir = scratch("overflow");
        let store = open(&dir, 4);
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        store.insert("big", &big, None).unwrap();
        assert_eq!(store.get("big").unwrap().unwrap(), big);
        let big2: Vec<u8> = vec![7u8; 9_000];
        store.upsert("big", &big2, Deadline::At(None)).unwrap();
        assert_eq!(store.get("big").unwrap().unwrap(), big2);
        store.remove("big").unwrap();
        assert_eq!(store.get("big").unwrap(), None);
        // Freed overflow pages are reused, not leaked: page_count should
        // not grow when the same value is written again.
        let before = store.inner.lock().meta.page_count;
        store.insert("big", &big, None).unwrap();
        let after = store.inner.lock().meta.page_count;
        assert!(after <= before + 1, "freelist reuse: {before} -> {after}");
    }

    /// One batch over many leaves: removes, deadline-keeping rewrites
    /// that grow their entries (leaves split mid-batch), a rewrite of an
    /// absent key, and same-key sequences — one generation, one COMMIT
    /// frame, and the same state after WAL replay.
    #[test]
    fn apply_is_one_transaction_whatever_it_touches() {
        let dir = scratch("apply");
        let store = open(&dir, 4);
        let key = |i: usize| format!("k{i:04}");
        for i in 0..600 {
            store
                .insert(
                    &key(i),
                    format!("v{i}").as_bytes(),
                    Some(1 << 60 | i as u64),
                )
                .unwrap();
        }
        store.checkpoint().unwrap();
        let before = store.generation();

        let grown: Vec<(String, Vec<u8>)> = (0..600)
            .filter(|i| i % 3 == 1)
            .map(|i| (key(i), vec![i as u8; 200]))
            .collect();
        let removed: Vec<String> = (0..600).filter(|i| i % 3 == 0).map(key).collect();
        let mut ops: Vec<BatchOp<'_>> = removed.iter().map(|k| BatchOp::Remove(k)).collect();
        ops.extend(grown.iter().map(|(key, value)| BatchOp::Upsert {
            key,
            value,
            deadline: Deadline::Keep,
        }));
        let put = |key, deadline| BatchOp::Upsert {
            key,
            value: b"new",
            deadline,
        };
        ops.extend([
            BatchOp::Remove("absent"),
            put("fresh", Deadline::Keep),
            put("put-then-removed", Deadline::At(None)),
            BatchOp::Remove("put-then-removed"),
            BatchOp::Remove("k0002"),
            put("k0002", Deadline::At(Some(1 << 61))),
        ]);
        let counted = store.apply(&ops).unwrap();
        assert_eq!(counted, ops.len() - 1, "only the absent remove is a miss");
        assert_eq!(store.generation(), before + 1, "one commit per batch");
        assert_eq!(store.apply(&[BatchOp::Remove("absent")]).unwrap(), 0);
        assert_eq!(store.generation(), before + 1, "a no-op commits nothing");
        assert_eq!(store.pinned_pages(), 0);

        let check = |store: &PageStore| {
            assert_eq!(store.record_count(), 600 - removed.len() + 1);
            for i in 0..600 {
                let got = store.get(&key(i)).unwrap();
                match i % 3 {
                    0 => assert_eq!(got, None, "{i} erased"),
                    1 => assert_eq!(got.unwrap(), vec![i as u8; 200]),
                    _ if i == 2 => assert_eq!(got.unwrap(), b"new"),
                    _ => assert_eq!(got.unwrap(), format!("v{i}").as_bytes()),
                }
            }
            assert_eq!(
                store.deadline_ms(&key(4)).unwrap(),
                Some(1 << 60 | 4),
                "Keep carries the replaced entry's deadline"
            );
            assert_eq!(store.deadline_ms("k0002").unwrap(), Some(1 << 61));
            assert_eq!(store.get("fresh").unwrap().unwrap(), b"new");
            assert_eq!(store.deadline_ms("fresh").unwrap(), None, "nothing to keep");
            assert_eq!(store.get("put-then-removed").unwrap(), None);
            let keys: Vec<String> = store.scan().unwrap().into_iter().map(|(k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "splits keep order");
        };
        check(&store);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let commits = wal[wal::WAL_HEADER..]
            .chunks(wal::FRAME_SIZE)
            .filter(|frame| frame[4] & wal::FLAG_COMMIT as u8 != 0)
            .count();
        assert_eq!(commits, 1, "one COMMIT frame for the whole batch");
        drop(store);
        let store = open(&dir, 4);
        assert_eq!(store.generation(), before + 1);
        check(&store);
    }

    #[test]
    fn restart_recovers_from_wal_without_checkpoint() {
        let dir = scratch("restart");
        {
            let store = open(&dir, 8);
            for i in 0..50 {
                store.insert(&format!("k{i}"), b"v", None).unwrap();
            }
            store.remove("k10").unwrap();
            // No checkpoint, no close: recovery must come from the WAL.
        }
        let store = open(&dir, 8);
        assert!(store.recovery().wal_frames > 0, "must take the WAL path");
        assert_eq!(store.record_count(), 49);
        assert_eq!(store.get("k10").unwrap(), None);
        assert_eq!(store.get("k11").unwrap().unwrap(), b"v");
        let generation = store.generation();
        drop(store);
        let store = open(&dir, 8);
        assert_eq!(
            store.generation(),
            generation,
            "replay reproduces generation"
        );
    }

    #[test]
    fn checkpoint_then_restart_reads_from_data_file() {
        let dir = scratch("checkpoint");
        {
            let store = open(&dir, 8);
            for i in 0..50 {
                store
                    .insert(&format!("k{i}"), format!("v{i}").as_bytes(), None)
                    .unwrap();
            }
            store.checkpoint().unwrap();
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len, wal::WAL_HEADER as u64, "checkpoint truncates WAL");
        let store = open(&dir, 8);
        assert_eq!(store.recovery().wal_frames, 0);
        assert_eq!(store.record_count(), 50);
        assert_eq!(store.get("k42").unwrap().unwrap(), b"v42");
    }

    #[test]
    fn lazy_expiry_mirrors_kvstore_semantics() {
        let dir = scratch("expiry");
        let sim = clock::sim();
        let store =
            PageStore::open(&dir, PageStoreConfig::default(), sim.clone() as SharedClock).unwrap();
        let reaped = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&reaped);
        store.set_expiry_listener(Arc::new(move |k| sink.lock().push(k.to_string())));

        let t0 = sim.now().as_millis();
        store.insert("a", b"1", Some(t0 + 1000)).unwrap();
        store.insert("b", b"2", None).unwrap();
        sim.sleep(std::time::Duration::from_millis(1000));
        // Inclusive boundary: deadline == now is already expired.
        assert_eq!(store.deadline_ms("a").unwrap(), Some(t0 + 1000));
        assert_eq!(store.record_count(), 2, "unreaped expired key still counts");
        assert_eq!(store.expired_keys().unwrap(), vec!["a".to_string()]);
        assert_eq!(store.record_count(), 2, "expired_keys is side-effect-free");
        assert_eq!(store.get("a").unwrap(), None, "lazy reap on read");
        assert_eq!(store.record_count(), 1);
        assert_eq!(reaped.lock().as_slice(), &["a".to_string()]);
        // Re-insert over the reaped key works; expired occupant reap via
        // insert also fires the listener.
        store.insert("a", b"3", Some(t0 + 1500)).unwrap();
        sim.sleep(std::time::Duration::from_millis(1000));
        assert!(
            store.insert("a", b"4", None).unwrap(),
            "expired occupant replaced"
        );
        assert_eq!(reaped.lock().len(), 2);
        assert_eq!(store.purge_expired().unwrap(), 0);
        assert_eq!(store.scan().unwrap().len(), 2);
    }

    #[test]
    fn tiny_pool_still_serves_large_dataset_and_pins_return_to_zero() {
        let dir = scratch("evict");
        let store = open(&dir, 2);
        for i in 0..2000 {
            store
                .insert(
                    &format!("user-{i:05}"),
                    format!("payload-{i}").as_bytes(),
                    None,
                )
                .unwrap();
            assert_eq!(store.pinned_pages(), 0);
        }
        let stats = store.pool_stats();
        assert!(stats.evictions > 0, "pressure must evict: {stats:?}");
        assert!(stats.resident <= stats.capacity);
        for i in (0..2000).step_by(97) {
            assert_eq!(
                store.get(&format!("user-{i:05}")).unwrap().unwrap(),
                format!("payload-{i}").as_bytes()
            );
            assert_eq!(store.pinned_pages(), 0);
        }
        assert_eq!(store.scan().unwrap().len(), 2000);
        assert_eq!(store.pinned_pages(), 0);
    }

    #[test]
    fn key_length_is_capped() {
        let dir = scratch("keycap");
        let store = open(&dir, 4);
        let long = "k".repeat(KEY_MAX + 1);
        assert!(matches!(
            store.insert(&long, b"v", None),
            Err(Error::KeyTooLong(_))
        ));
    }
}
