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
//!   last 8 bytes of every page are an XXH64 checksum of the payload,
//!   seeded by the page id, so bit rot and misdirected writes are detected
//!   at read time; every page read from disk is verified. See [`page`] for
//!   the exact byte spec.
//! * `wal.log` — checksummed page-image frames (see [`wal`]). A commit
//!   appends every page the transaction dirtied — the meta page always
//!   among them — with the COMMIT flag on the final frame. A transaction
//!   is one [`PageStore::apply`] batch; every other write is a
//!   one-element batch. The data file is only touched at checkpoint:
//!   flush the newest image of every WAL-resident page, `fsync` the data
//!   file, then truncate the WAL.
//!
//! This is on-disk format 2. Format 1 differed only in its checksums
//! (SipHash-2-4); `open` refuses a directory whose meta page says format
//! 1 with [`Error::Format`] before it reads or truncates the WAL, whose
//! frames it could not check. Files are read and written positionally
//! (`pread` / `pwrite`), never through a seek.
//!
//! Recovery scans the WAL, truncates the first torn or corrupt frame and
//! everything after it, discards any trailing frames past the last COMMIT,
//! and serves subsequent reads from the surviving frames (newest image
//! wins) falling back to the data file. A crash at *any* byte boundary
//! therefore lands the store on some committed prefix of its history —
//! never a half-applied operation.
//!
//! # Buffer pool
//!
//! Reads go through a fixed-capacity [`pool`] of verified, committed page
//! images. The slot of an internal page also holds the page decoded: a
//! descent decodes the root and the internal pages once per committed
//! image, not once per lookup, and a decode goes with its image when the
//! image is refreshed by a commit or evicted. Pages a transaction dirtied
//! are decoded from the transaction's own bytes.
//!
//! A read does not decode leaves. Its descent ends at the leaf's committed
//! image, [`page::leaf_cells`] locates the cells in place, and the values
//! are lent: an inline value straight from the image, a sealed one opened
//! into a buffer the call reuses ([`PageStore::get_each`]). Expiry walks
//! ([`PageStore::expired_keys`], [`PageStore::purge_expired`]) read only
//! keys and deadlines, and [`PageStore::scan`] copies only the values it
//! returns. Only the write path (`apply`) decodes a leaf into owned
//! entries, edits them and serializes the leaf again.
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
//!
//! A purge need not read the tree to learn that nothing is due. The store
//! keeps a *deadline floor* in memory: no entry carries a deadline below
//! it. It is 0 (nothing known) on open, so the first
//! [`PageStore::purge_expired`] or [`PageStore::expired_keys`] after open
//! walks the leaf chain. Every upsert that stores a deadline lowers the
//! floor to it; a purge, having reaped every due entry, raises it to the
//! earliest deadline left (`u64::MAX` when none is). While the clock reads
//! below the floor, both calls answer at once and read no page; at the
//! floor they walk, so `deadline == now` is still due. `expired_keys`
//! reaps nothing, so it may only raise the floor to the earliest deadline
//! of *all* entries: a floor above an entry it leaves in place would hide
//! that entry from the next purge.

pub mod page;
pub mod pool;
pub mod wal;

use page::{
    internal_size, leaf_cells, leaf_size, page_type, parse_free, parse_internal, parse_leaf,
    parse_overflow, serialize_free, serialize_internal, serialize_leaf, serialize_overflow,
    verify_page, CellRef, CellValue, Internal, Leaf, LeafEntry, Meta, ValueRef, INLINE_VALUE_MAX,
    OVERFLOW_DATA, T_INTERNAL, T_LEAF,
};
pub use page::{KEY_MAX, PAGE_SIZE};
pub use pool::PoolStats;

use clock::SharedClock;
use crypto::Volume;
use parking_lot::Mutex;
use pool::{PageImage, Pool};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
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
    /// The directory is in an on-disk format this build does not read
    /// (the version its meta page declares). Nothing was changed.
    Format(u32),
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
            Error::Format(v) => write!(
                f,
                "pagestore format version {v}: this build reads version {} only",
                page::META_VERSION
            ),
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
#[derive(Debug, Clone, PartialEq)]
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
    /// No entry in the tree carries a deadline below this. 0 (nothing
    /// known) on open; lowered by every upsert that stores a deadline,
    /// raised by the walks of [`PageStore::purge_expired`] and
    /// [`PageStore::expired_keys`]. In memory only.
    deadline_floor: u64,
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
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("pages.db"))?;
        // An older format is refused before recovery reads — and would
        // truncate — a WAL whose frames this build cannot check.
        let mut header = [0u8; 8];
        if data.read_exact_at(&mut header, 0).is_ok() {
            if let Some(old @ 1) = page::declared_version(&header) {
                return Err(Error::Format(old));
            }
        }
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
            wal.write_all_at(&wal::header_bytes(), 0)?;
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
                data.read_exact_at(&mut image, 0)?;
                Meta::parse(&image)?
            } else {
                // Fresh store: write the initial meta page directly (the
                // only non-WAL data-file write; nothing precedes it).
                let meta = Meta::fresh();
                data.write_all_at(&meta.serialize(), 0)?;
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
                deadline_floor: 0,
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
    /// fires, and the read reports absence. A one-key [`Self::get_each`].
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let mut value = None;
        self.get_each(&[key], |_, bytes| value = Some(bytes.to_vec()))?;
        Ok(value)
    }

    /// Show `visit` the value of each of `keys` that holds a live record,
    /// with its index in `keys`, under one hold of the store mutex and with
    /// **one root-to-leaf descent per touched leaf** when `keys` is sorted:
    /// a descent serves the run of keys that falls inside its leaf's key
    /// range. The value is lent: an inline value straight out of the page
    /// image, a sealed one opened into a buffer the call reuses. `visit`
    /// runs under the store mutex, so it must not call back into the
    /// store. Expired entries met on the way are collected, reaped in one
    /// transaction after the walk, and reported to the expiry listener —
    /// as [`Self::scan`] does.
    pub fn get_each<K: AsRef<str>>(
        &self,
        keys: &[K],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let mut expired = Vec::new();
        let mut cells = Vec::new();
        let mut plain = Vec::new();
        let mut next = 0;
        while next < keys.len() {
            let first = keys[next].as_ref().as_bytes();
            let Some(leaf) = inner.descend_leaf(first, &mut cells)? else {
                break; // empty tree
            };
            while let Some(key) = keys.get(next).map(AsRef::as_ref) {
                if key.as_bytes() < first || !below_fence(&leaf.upper, key.as_bytes()) {
                    break;
                }
                let found =
                    cells.binary_search_by(|cell| cell.key(&leaf.bytes).cmp(key.as_bytes()));
                if let Ok(at) = found {
                    let cell = &cells[at];
                    if is_expired(cell.deadline_ms, now) {
                        expired.push(key.to_string());
                    } else {
                        visit(next, inner.open_value(&leaf.bytes, cell, &mut plain)?);
                    }
                }
                next += 1;
            }
        }
        inner.reap(&expired)?;
        drop(inner);
        self.notify_expired(&expired);
        Ok(())
    }

    /// Insert a fresh record. Returns `false` when a *live* record already
    /// holds the key (the caller's AlreadyExists); an expired occupant is
    /// lazily reaped first — exactly the kvstore's `SET NX` semantics.
    pub fn insert(&self, key: &str, value: &[u8], deadline_ms: Option<u64>) -> Result<bool> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let occupant = inner.lookup(key.as_bytes())?;
        let reaped = match occupant {
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
        Ok(inner
            .lookup(key.as_bytes())?
            .and_then(|cell| cell.deadline_ms))
    }

    /// Every live record in key order. Expired records encountered are
    /// reaped (one committed transaction) and the listener fires for each
    /// — the ordered-walk equivalent of the kvstore's cursor-walk-then-GET
    /// scan, which also destroys what it finds expired.
    pub fn scan(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        let mut expired = Vec::new();
        let mut live = Vec::new();
        let mut plain = Vec::new();
        inner.walk_leaves(|inner, image, cells| {
            for cell in cells {
                let key = utf8_key(cell.key(image))?;
                if is_expired(cell.deadline_ms, now) {
                    expired.push(key);
                } else {
                    let value = inner.open_value(image, cell, &mut plain)?;
                    live.push((key, value.to_vec()));
                }
            }
            Ok(())
        })?;
        inner.reap(&expired)?;
        drop(inner);
        self.notify_expired(&expired);
        Ok(live)
    }

    /// Keys past their deadline, **without** reaping — the side-effect-free
    /// enumeration the multi-tenant purge path requires.
    ///
    /// Below the deadline floor (see the crate's "Semantics") it answers
    /// empty and reads no page. Otherwise it walks the leaf chain, and
    /// when nothing is due it takes the earliest deadline in the tree as
    /// the new floor. When something is due the floor stays where it is:
    /// the due entries stay in the tree, and a floor above any of them
    /// would hide them from the next purge.
    pub fn expired_keys(&self) -> Result<Vec<String>> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        if inner.nothing_due(now) {
            return Ok(Vec::new());
        }
        let (due, later) = inner.due_keys(now)?;
        if due.is_empty() {
            inner.deadline_floor = later;
        }
        Ok(due)
    }

    /// Synchronously erase everything past its deadline.
    ///
    /// Below the deadline floor (see the crate's "Semantics") it erases
    /// nothing and reads no page. Otherwise it walks the leaf chain, reaps
    /// every due entry in one transaction under the same lock hold, and
    /// then raises the floor to the earliest deadline that survived
    /// (`u64::MAX` when none did).
    pub fn purge_expired(&self) -> Result<usize> {
        let now = self.now_ms();
        let mut inner = self.inner.lock();
        if inner.nothing_due(now) {
            return Ok(0);
        }
        let (keys, later) = inner.due_keys(now)?;
        inner.reap(&keys)?;
        inner.deadline_floor = later;
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

/// Where a write's root-to-leaf descent ended.
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

/// A tree page's bytes as a descent meets them.
enum PageBytes<'t> {
    /// A page the transaction dirtied: its own, uncommitted image.
    Dirty(&'t [u8]),
    /// A committed image, shared with the pool slot that holds it.
    Pooled(PageImage),
}

impl std::ops::Deref for PageBytes<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            PageBytes::Dirty(image) => image,
            PageBytes::Pooled(image) => image,
        }
    }
}

/// The leaf a descent reached: its page id, bytes and [`Descent::upper`]
/// fence.
struct Reached<'t> {
    pid: u32,
    bytes: PageBytes<'t>,
    upper: Option<Vec<u8>>,
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
            self.wal.read_exact_at(&mut buf, off)?;
        } else {
            if pid >= self.meta.page_count {
                return Err(Error::corrupt(format!("page {pid} beyond allocation")));
            }
            let off = pid as u64 * PAGE_SIZE as u64;
            self.data.read_exact_at(&mut buf, off).map_err(|e| {
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
        if let Some(image) = tx.and_then(|tx| tx.dirty.get(&pid)) {
            return f(image);
        }
        let image = self.read_page(pid)?;
        self.parse_pinned(pid, &image, |_, image| f(image))
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
        // In pid order, like the frames: which images a nearly full pool
        // keeps must not depend on the `HashMap`'s per-process hash seed.
        for pid in pids {
            let image = tx.dirty.remove(&pid).expect("pids are tx.dirty's keys");
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
        let mut at = self.wal_len;
        let mut left = pids.len();
        for chunk in pids.chunks(WAL_CHUNK_FRAMES) {
            self.wal_buf.clear();
            for &pid in chunk {
                left -= 1;
                let image = &tx.dirty[&pid];
                wal::encode_frame(&mut self.wal_buf, pid, left == 0, tx.meta.generation, image);
            }
            self.wal.write_all_at(&self.wal_buf, at)?;
            at += self.wal_buf.len() as u64;
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
            self.wal.read_exact_at(&mut image, off)?;
            self.data
                .write_all_at(&image, pid as u64 * PAGE_SIZE as u64)?;
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

    /// The value of `cell`, a cell of the committed leaf `image`, lent: an
    /// unsealed inline value in place, anything else through `buf` (an
    /// overflow chain gathered, a sealed value opened).
    fn open_value<'a>(
        &mut self,
        image: &'a [u8],
        cell: &CellRef,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8]> {
        let stored = match cell.value {
            CellValue::Inline { start, end } => Cow::Borrowed(&image[start as usize..end as usize]),
            CellValue::Overflow { total_len, head } => {
                Cow::Owned(self.load_overflow(total_len, head)?)
            }
        };
        match (&self.volume, stored) {
            (None, Cow::Borrowed(value)) => Ok(value),
            (None, Cow::Owned(value)) => {
                *buf = value;
                Ok(buf)
            }
            (Some(volume), stored) => {
                volume
                    .open_into(&stored, buf)
                    .map_err(|e| Error::corrupt(format!("sealed value: {e:?}")))?;
                Ok(buf)
            }
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

    /// The `total_len` bytes of the overflow chain starting at `head`.
    fn load_overflow(&mut self, total_len: u32, head: u32) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(total_len as usize);
        let mut pid = head;
        let mut hops = 0u32;
        while pid != 0 {
            hops += 1;
            if hops > self.meta.page_count {
                return Err(Error::corrupt("overflow chain cycle"));
            }
            let (next, chunk) = self.with_image(None, pid, |img| parse_overflow(pid, img))?;
            out.extend_from_slice(&chunk);
            pid = next;
        }
        if out.len() != total_len as usize {
            return Err(Error::corrupt(format!(
                "overflow length {} != {total_len}",
                out.len()
            )));
        }
        Ok(out)
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

    /// The one root-to-leaf walk: the leaf whose key range covers `key`
    /// (`None` while the tree is empty), side-effect-free, with the
    /// internal pages it passed pushed on `path`, root first. Each page is
    /// read once: a page `tx` dirtied from the transaction's bytes, any
    /// other through the pool, which keeps an internal page's decode
    /// beside its committed image ([`Pool::internal`]) so descents through
    /// it parse it once.
    fn seek_leaf<'t>(
        &mut self,
        tx: Option<&'t TxState>,
        key: &[u8],
        path: &mut Vec<u32>,
    ) -> Result<Option<Reached<'t>>> {
        let mut pid = tx.map_or(self.meta.root, |t| t.meta.root);
        if pid == 0 {
            return Ok(None);
        }
        let mut upper: Option<Vec<u8>> = None;
        for _ in 0..=MAX_TREE_DEPTH {
            let bytes = match tx.and_then(|tx| tx.dirty.get(&pid)) {
                Some(image) => PageBytes::Dirty(image),
                None => PageBytes::Pooled(self.read_page(pid)?),
            };
            match page_type(pid, &bytes)? {
                T_INTERNAL => {
                    let node = match &bytes {
                        PageBytes::Dirty(image) => Arc::new(parse_internal(pid, image)?),
                        PageBytes::Pooled(image) => self.pool.internal(pid, image)?,
                    };
                    let (child, bound) = descend_child(&node, key, pid)?;
                    path.push(pid);
                    upper = bound.map(<[u8]>::to_vec).or(upper);
                    pid = child;
                }
                T_LEAF => return Ok(Some(Reached { pid, bytes, upper })),
                t => return Err(Error::corrupt(format!("page {pid}: type {t} in tree path"))),
            }
        }
        Err(Error::corrupt("tree deeper than MAX_TREE_DEPTH (cycle?)"))
    }

    /// A write's descent through `tx` to the leaf covering `key`, decoded.
    fn descend(&mut self, tx: &TxState, key: &[u8]) -> Result<Descent> {
        let mut path = Vec::new();
        let reached = self
            .seek_leaf(Some(tx), key, &mut path)?
            .expect("the tree has a root");
        let leaf = match &reached.bytes {
            PageBytes::Dirty(image) => parse_leaf(reached.pid, image)?,
            PageBytes::Pooled(image) => self.parse_pinned(reached.pid, image, parse_leaf)?,
        };
        Ok(Descent {
            pid: reached.pid,
            leaf,
            path,
            upper: reached.upper,
        })
    }

    /// A read's descent to the committed leaf covering `key` (`None` while
    /// the tree is empty), its cells located into `cells`.
    fn descend_leaf(
        &mut self,
        key: &[u8],
        cells: &mut Vec<CellRef>,
    ) -> Result<Option<Reached<'static>>> {
        let Some(reached) = self.seek_leaf(None, key, &mut Vec::new())? else {
            return Ok(None);
        };
        self.parse_pinned(reached.pid, &reached.bytes, |pid, image| {
            leaf_cells(pid, image, cells)
        })?;
        Ok(Some(reached))
    }

    /// `parse` over a committed image with its pool slot pinned.
    fn parse_pinned<T>(
        &mut self,
        pid: u32,
        image: &[u8],
        parse: impl FnOnce(u32, &[u8]) -> Result<T>,
    ) -> Result<T> {
        self.pool.pin(pid);
        let parsed = parse(pid, image);
        self.pool.unpin(pid);
        parsed
    }

    /// The committed cell for `key`, side-effect-free.
    fn lookup(&mut self, key: &[u8]) -> Result<Option<CellRef>> {
        let mut cells = Vec::new();
        let Some(leaf) = self.descend_leaf(key, &mut cells)? else {
            return Ok(None);
        };
        let found = cells.binary_search_by(|cell| cell.key(&leaf.bytes).cmp(key));
        Ok(found.ok().map(|at| cells[at]))
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
        } = self.descend(tx, ops[0].key())?;

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
                        Deadline::At(at) => {
                            // Lowered before the commit: if the transaction
                            // fails, a floor below every entry still holds.
                            if let Some(at) = at {
                                self.deadline_floor = self.deadline_floor.min(*at);
                            }
                            *at
                        }
                        // The kept deadline is already at or above the floor.
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

    /// Whether the floor rules out any entry due at `now`. The boundary
    /// is inclusive, as everywhere: an entry whose deadline is `now` is
    /// due, so `now == floor` must walk.
    fn nothing_due(&self, now: u64) -> bool {
        now < self.deadline_floor
    }

    /// The keys due at `now`, in key order, by a walk of the leaf chain,
    /// and the earliest deadline of the entries that are not due
    /// (`u64::MAX` when none carries one).
    fn due_keys(&mut self, now: u64) -> Result<(Vec<String>, u64)> {
        let mut due = Vec::new();
        let mut later = u64::MAX;
        self.walk_leaves(|_, image, cells| {
            for cell in cells {
                if is_expired(cell.deadline_ms, now) {
                    due.push(utf8_key(cell.key(image))?);
                } else if let Some(at) = cell.deadline_ms {
                    later = later.min(at);
                }
            }
            Ok(())
        })?;
        Ok((due, later))
    }

    /// Show `visit` every committed leaf in key order — its image and its
    /// cells, located in place — by a descent to the leftmost leaf and a
    /// walk of the leaf chain.
    fn walk_leaves(
        &mut self,
        mut visit: impl FnMut(&mut Inner, &[u8], &[CellRef]) -> Result<()>,
    ) -> Result<()> {
        let Some(leftmost) = self.seek_leaf(None, &[], &mut Vec::new())? else {
            return Ok(());
        };
        // Follow the leaf chain, guarding against cycles in corrupt files.
        let mut pid = leftmost.pid;
        let mut cells = Vec::new();
        let mut hops = 0u32;
        while pid != 0 {
            hops += 1;
            if hops > self.meta.page_count {
                return Err(Error::corrupt("leaf chain cycle"));
            }
            let image = self.read_page(pid)?;
            let next =
                self.parse_pinned(pid, &image, |pid, image| leaf_cells(pid, image, &mut cells))?;
            visit(self, &image, &cells)?;
            pid = next;
        }
        Ok(())
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
    use std::collections::BTreeMap;

    /// A fresh dir under the temp dir, removed with its files on drop.
    struct Scratch(PathBuf);

    impl std::ops::Deref for Scratch {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for Scratch {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
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
        Scratch(dir)
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
        let (store, reaped) = open_sim(&dir, PageStoreConfig::default().pool_pages, &sim);

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

    /// A deterministic xorshift stream (the crate has no `rand` edge).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// 300-byte keys: about a dozen separators fill an internal page, so
    /// a few hundred records grow a tree with internal splits.
    fn long_key(n: u64) -> String {
        format!("{n:0>300}")
    }

    /// What every op must leave behind: no pin held, and every decode the
    /// pool keeps is its slot's current image, decoded.
    fn assert_pool_sound(store: &PageStore) {
        assert_eq!(store.pinned_pages(), 0);
        assert!(store.inner.lock().pool.decodes_match_images());
    }

    /// Internal pages of the committed tree, counted in the data file
    /// after a checkpoint (internal pages are never freed).
    fn internal_pages(store: &PageStore) -> usize {
        store.checkpoint().unwrap();
        let pages = std::fs::read(store.dir().join("pages.db")).unwrap();
        let tree = pages.chunks(PAGE_SIZE).skip(1);
        tree.filter(|page| page[0] == T_INTERNAL).count()
    }

    fn assert_matches_model(store: &PageStore, model: &BTreeMap<String, Vec<u8>>) {
        let scan = store.scan().unwrap();
        assert_eq!(scan.len(), model.len());
        assert!(scan
            .iter()
            .zip(model)
            .all(|((k, v), (mk, mv))| k == mk && v == mv));
    }

    /// `Inner::commit` installs committed images in pid order: stores
    /// opened on copies of one directory and fed one op sequence end with
    /// equal pool counts, although each `tx.dirty` map hashes under its
    /// own seed.
    #[test]
    fn pool_counts_repeat_on_copies_of_one_directory() {
        let base = scratch("repeat-base");
        {
            let store = open(&base, 8);
            store.insert("seed", b"v", None).unwrap();
            store.checkpoint().unwrap();
        }
        let run = |copy: usize| {
            let dir = scratch(&format!("repeat-{copy}"));
            std::fs::create_dir_all(&dir).unwrap();
            for file in ["pages.db", "wal.log"] {
                std::fs::copy(base.join(file), dir.join(file)).unwrap();
            }
            // The batch dirties more pages than the pool has free slots:
            // which of them the commit installs decides what the reads
            // below hit.
            let store = open(&dir, 32);
            let values: Vec<(String, Vec<u8>)> = (0..300)
                .map(|i| (long_key(i), vec![i as u8; 400]))
                .collect();
            let ops: Vec<BatchOp<'_>> = values
                .iter()
                .map(|(key, value)| BatchOp::Upsert {
                    key,
                    value,
                    deadline: Deadline::At(None),
                })
                .collect();
            store.apply(&ops).unwrap();
            for (key, _) in &values {
                store.get(key).unwrap().unwrap();
            }
            store.pool_stats()
        };
        let first = run(0);
        for copy in 1..4 {
            assert_eq!(run(copy), first, "copy {copy}");
        }
    }

    /// Root and internal splits interleaved with point and batched reads
    /// on a two-page pool, against a `BTreeMap` model: every descent
    /// reads through decodes that must track the images they came from,
    /// and the data survive a checkpoint and a reopen.
    #[test]
    fn decodes_track_their_images_through_root_and_internal_splits() {
        let dir = scratch("decode-splits");
        let store = open(&dir, 2);
        let mut model = BTreeMap::new();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for step in 0..1_500u64 {
            let key = long_key(rng.below(500));
            match rng.below(10) {
                0..=5 => {
                    let value = vec![step as u8; rng.below(600) as usize];
                    store.upsert(&key, &value, Deadline::At(None)).unwrap();
                    model.insert(key, value);
                }
                6 => assert_eq!(store.remove(&key).unwrap(), model.remove(&key).is_some()),
                7 => {
                    let window: Vec<&String> = model.range(key..).take(5).map(|(k, _)| k).collect();
                    let mut got = vec![None; window.len()];
                    store
                        .get_each(&window, |i, value| got[i] = Some(value.to_vec()))
                        .unwrap();
                    assert!(got
                        .iter()
                        .zip(&window)
                        .all(|(v, k)| v.as_ref() == model.get(*k)));
                }
                _ => assert_eq!(store.get(&key).unwrap().as_ref(), model.get(&key)),
            }
            assert_pool_sound(&store);
        }
        assert_matches_model(&store, &model);
        assert!(
            internal_pages(&store) >= 3,
            "the root split and then split again"
        );
        drop(store);
        let store = open(&dir, 2);
        assert_matches_model(&store, &model);
        assert_pool_sound(&store);
    }

    /// A cold `get_each` of every key, sorted, descends once per leaf and
    /// reads each page on a descent's path through the pool exactly once:
    /// the pool is asked leaves × height times, and no more.
    #[test]
    fn a_cold_sorted_get_each_looks_each_path_page_up_once() {
        let dir = scratch("get-each-cold");
        let store = open(&dir, 4);
        let keys: Vec<String> = (0..400).map(long_key).collect();
        for key in &keys {
            store.insert(key, &[5u8; 200], None).unwrap();
        }
        store.checkpoint().unwrap();
        let root = store.inner.lock().meta.root;
        drop(store);
        let pages = std::fs::read(dir.join("pages.db")).unwrap();
        let page = |pid: u32| &pages[pid as usize * PAGE_SIZE..][..PAGE_SIZE];
        let mut height = 1;
        let mut pid = root;
        while page(pid)[0] == T_INTERNAL {
            pid = parse_internal(pid, page(pid)).unwrap().children[0];
            height += 1;
        }
        let leaves = pages.chunks(PAGE_SIZE).filter(|p| p[0] == T_LEAF).count() as u64;
        assert!(
            height >= 3 && leaves > 20,
            "height {height}, {leaves} leaves"
        );

        let store = open(&dir, 4);
        let mut seen = Vec::new();
        store
            .get_each(&keys, |i, value| {
                assert_eq!(value, [5u8; 200]);
                seen.push(i);
            })
            .unwrap();
        assert!(
            seen.iter().copied().eq(0..keys.len()),
            "every key, in order"
        );
        let stats = store.pool_stats();
        assert_eq!(stats.hits + stats.misses, leaves * height);
        assert_pool_sound(&store);
    }

    /// A format-1 directory — its meta page says version 1, its WAL
    /// carries the format-1 magic and commits no checkpoint took — is
    /// refused before recovery reads or truncates the WAL: both files stay
    /// byte for byte as they were.
    #[test]
    fn a_format_1_directory_is_refused_before_its_wal_is_touched() {
        let dir = scratch("format-1");
        {
            let store = open(&dir, 8);
            store.insert("checkpointed", b"v", None).unwrap();
            store.checkpoint().unwrap();
            for i in 0..20 {
                store.insert(&format!("k{i}"), b"v", None).unwrap();
            }
            assert!(store.inner.lock().wal_len > wal::WAL_HEADER as u64);
        }
        let (pages, wal_log) = (dir.join("pages.db"), dir.join("wal.log"));
        let mut data = std::fs::read(&pages).unwrap();
        data[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&pages, &data).unwrap();
        let mut log = std::fs::read(&wal_log).unwrap();
        log[..8].copy_from_slice(b"GPgWAL01");
        std::fs::write(&wal_log, &log).unwrap();

        let config = PageStoreConfig::default();
        let refused = PageStore::open(&dir, config, clock::wall());
        assert!(matches!(refused, Err(Error::Format(1))));
        assert!(refused.err().unwrap().to_string().contains("version 1"));
        assert_eq!(std::fs::read(&pages).unwrap(), data);
        assert_eq!(std::fs::read(&wal_log).unwrap(), log);
    }

    /// Once the pool holds the tree's internal pages, lookups decode each
    /// of them once, however many descents pass through.
    #[test]
    fn a_warm_pool_decodes_each_internal_page_once() {
        let dir = scratch("decode-once");
        let store = open(&dir, 256);
        for i in 0..400 {
            store.insert(&long_key(i), &[1u8; 300], None).unwrap();
        }
        let internal = internal_pages(&store);
        drop(store);
        let store = open(&dir, 256);
        for _ in 0..3 {
            for i in 0..400 {
                store.get(&long_key(i)).unwrap().unwrap();
            }
        }
        let decodes = store.pool_stats().decodes;
        assert!(
            internal >= 3 && decodes as usize <= internal,
            "{decodes} decodes of {internal} internal pages"
        );
        assert_pool_sound(&store);
    }

    /// A batch that fails leaves the committed images — and only their
    /// decodes — behind: refused up front (an over-long key among
    /// splitting upserts), or part-way through its descents (a corrupt
    /// leaf past pages the transaction already split).
    #[test]
    fn a_failed_apply_leaves_no_decode_of_an_uncommitted_image() {
        let dir = scratch("decode-failed-apply");
        let store = open(&dir, 2);
        let mut model = BTreeMap::new();
        for i in (0..400).step_by(2) {
            store.insert(&long_key(i), &[2u8; 300], None).unwrap();
            model.insert(long_key(i), vec![2u8; 300]);
        }
        let grown: Vec<(String, Vec<u8>)> = (1..300)
            .step_by(2)
            .map(|i| (long_key(i), vec![3u8; 600]))
            .collect();
        let mut ops: Vec<BatchOp<'_>> = grown
            .iter()
            .map(|(key, value)| BatchOp::Upsert {
                key,
                value,
                deadline: Deadline::At(None),
            })
            .collect();
        let long = "k".repeat(KEY_MAX + 1);
        let (generation, decodes) = (store.generation(), store.pool_stats().decodes);
        ops.insert(ops.len() / 2, BatchOp::Remove(&long));
        assert!(matches!(store.apply(&ops), Err(Error::KeyTooLong(_))));
        assert_eq!(store.generation(), generation);
        assert_eq!(
            store.pool_stats().decodes,
            decodes,
            "refused before any descent"
        );
        assert_pool_sound(&store);
        assert_matches_model(&store, &model);

        // Corrupt the leaf holding the largest key, then run the same
        // splitting batch with that key last: it fails at the last leaf.
        let last = long_key(398);
        let pages = dir.join("pages.db");
        store.checkpoint().unwrap();
        drop(store);
        let mut bytes = std::fs::read(&pages).unwrap();
        let leaf = bytes
            .chunks(PAGE_SIZE)
            .position(|page| {
                page[0] == T_LEAF && page.windows(last.len()).any(|w| w == last.as_bytes())
            })
            .unwrap();
        bytes[leaf * PAGE_SIZE + page::PAYLOAD - 1] ^= 0x10;
        std::fs::write(&pages, bytes).unwrap();
        let store = open(&dir, 2);
        ops.retain(|op| op.key().len() <= KEY_MAX);
        ops.push(BatchOp::Remove(&last));
        assert!(matches!(store.apply(&ops), Err(Error::Corrupt(_))));
        assert_eq!(store.generation(), generation);
        assert_pool_sound(&store);
        for (key, value) in model.range(..long_key(300)) {
            assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
        }
        assert!(grown
            .iter()
            .all(|(key, _)| store.get(key).unwrap().is_none()));
        assert_pool_sound(&store);
    }

    /// A flipped byte in an on-disk internal page is `Corrupt` on the
    /// first descent after reopen — a decode is only ever made from a
    /// verified image.
    #[test]
    fn a_flipped_byte_in_an_internal_page_is_corrupt_before_any_decode() {
        let dir = scratch("decode-flip");
        let store = open(&dir, 2);
        for i in 0..200 {
            store.insert(&long_key(i), &[4u8; 300], None).unwrap();
        }
        store.checkpoint().unwrap();
        let root = store.inner.lock().meta.root as usize;
        drop(store);
        let pages = dir.join("pages.db");
        let mut bytes = std::fs::read(&pages).unwrap();
        assert_eq!(bytes[root * PAGE_SIZE], T_INTERNAL);
        bytes[root * PAGE_SIZE + 5] ^= 0x01;
        std::fs::write(&pages, bytes).unwrap();
        let store = open(&dir, 2);
        for _ in 0..2 {
            assert!(matches!(store.get(&long_key(7)), Err(Error::Corrupt(_))));
            assert!(matches!(
                store.upsert(&long_key(8), b"v", Deadline::Keep),
                Err(Error::Corrupt(_))
            ));
            assert_pool_sound(&store);
        }
        assert_eq!(store.pool_stats().decodes, 0);
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

    type Reaped = Arc<Mutex<Vec<String>>>;

    /// A store on the simulated clock `sim`, its expiry listener logging
    /// into the returned list.
    fn open_sim(dir: &Path, pool: usize, sim: &Arc<clock::SimClock>) -> (Arc<PageStore>, Reaped) {
        let config = PageStoreConfig {
            pool_pages: pool,
            ..Default::default()
        };
        let store = PageStore::open(dir, config, sim.clone() as SharedClock).unwrap();
        let reaped = Reaped::default();
        let sink = Arc::clone(&reaped);
        store.set_expiry_listener(Arc::new(move |k| sink.lock().push(k.to_string())));
        (store, reaped)
    }

    fn now_ms(sim: &clock::SimClock) -> u64 {
        sim.now().as_millis()
    }

    fn advance_ms(sim: &clock::SimClock, ms: u64) {
        sim.advance(std::time::Duration::from_millis(ms));
    }

    /// Page images the pool served or missed: every page an op read.
    fn page_reads(store: &PageStore) -> u64 {
        let stats = store.pool_stats();
        stats.hits + stats.misses
    }

    /// The first purge (or expiry enumeration) after open walks the tree
    /// and takes a floor; every later one with nothing due reads no page.
    #[test]
    fn a_second_purge_with_nothing_due_reads_no_page() {
        let dir = scratch("floor-skip");
        let sim = clock::sim();
        let t0 = now_ms(&sim);
        {
            let (store, _) = open_sim(&dir, 4, &sim);
            for i in 0..300 {
                let deadline = (i % 3 != 0).then_some(t0 + 3_600_000 + i);
                store.insert(&long_key(i), b"v", deadline).unwrap();
            }
        }
        advance_ms(&sim, 1_000);
        for first_purges in [true, false] {
            let (store, reaped) = open_sim(&dir, 4, &sim);
            let before = page_reads(&store);
            if first_purges {
                assert_eq!(store.purge_expired().unwrap(), 0);
            } else {
                assert!(store.expired_keys().unwrap().is_empty());
            }
            let walked = page_reads(&store);
            assert!(walked > before + 20, "the first call walks the leaves");
            advance_ms(&sim, 1_000);
            assert_eq!(store.purge_expired().unwrap(), 0);
            assert!(store.expired_keys().unwrap().is_empty());
            assert_eq!(store.purge_expired().unwrap(), 0);
            assert_eq!(page_reads(&store), walked, "nothing due: no page read");
            assert_eq!(store.record_count(), 300);
            assert!(reaped.lock().is_empty());
        }

        // No deadline at all: the floor is `u64::MAX` until one is stored.
        let dir = scratch("floor-none");
        let (store, _) = open_sim(&dir, 4, &sim);
        store.insert("forever", b"v", None).unwrap();
        assert_eq!(store.purge_expired().unwrap(), 0);
        let walked = page_reads(&store);
        advance_ms(&sim, u32::MAX as u64);
        assert_eq!(store.purge_expired().unwrap(), 0);
        assert_eq!(page_reads(&store), walked);
    }

    /// Once a floor is taken — by a purge or by an expiry enumeration —
    /// an upsert with an earlier deadline lowers it: the entry is due at
    /// exactly its deadline (inclusive), not a millisecond later, and the
    /// purge fires the listener for it.
    #[test]
    fn an_earlier_deadline_after_the_floor_is_reaped_at_exactly_that_deadline() {
        for floor_by_purge in [true, false] {
            let dir = scratch("floor-lower");
            let sim = clock::sim();
            let (store, reaped) = open_sim(&dir, 4, &sim);
            let t0 = now_ms(&sim);
            store.insert("late", b"v", Some(t0 + 10_000)).unwrap();
            if floor_by_purge {
                assert_eq!(store.purge_expired().unwrap(), 0);
            } else {
                assert!(store.expired_keys().unwrap().is_empty());
            }
            let early = Deadline::At(Some(t0 + 1_000));
            store.upsert("early", b"v", early).unwrap();
            advance_ms(&sim, 999);
            assert_eq!(store.purge_expired().unwrap(), 0, "not due at −1 ms");
            advance_ms(&sim, 1);
            assert_eq!(store.expired_keys().unwrap(), vec!["early".to_string()]);
            assert_eq!(store.purge_expired().unwrap(), 1, "due at == now");
            assert_eq!(reaped.lock().as_slice(), &["early".to_string()]);
            assert_eq!(store.record_count(), 1);
            // The purge raised the floor to the survivor's deadline.
            let reads = page_reads(&store);
            advance_ms(&sim, 8_999);
            assert_eq!(store.purge_expired().unwrap(), 0);
            assert_eq!(page_reads(&store), reads);
            advance_ms(&sim, 1);
            assert_eq!(store.purge_expired().unwrap(), 1);
            assert_eq!(store.record_count(), 0);
        }
    }

    /// A `Deadline::Keep` rewrite of a lapsed entry carries the lapsed
    /// deadline: the entry stays due, whatever floor an earlier call took.
    #[test]
    fn a_keep_rewrite_of_a_lapsed_entry_stays_due() {
        let dir = scratch("floor-keep");
        let sim = clock::sim();
        let (store, reaped) = open_sim(&dir, 4, &sim);
        let t0 = now_ms(&sim);
        store.insert("a", b"1", Some(t0 + 1_000)).unwrap();
        store.insert("b", b"1", Some(t0 + 5_000)).unwrap();
        assert_eq!(store.purge_expired().unwrap(), 0);
        advance_ms(&sim, 2_000);
        assert_eq!(store.expired_keys().unwrap(), vec!["a".to_string()]);
        store.upsert("a", b"2", Deadline::Keep).unwrap();
        assert_eq!(store.deadline_ms("a").unwrap(), Some(t0 + 1_000));
        assert_eq!(store.expired_keys().unwrap(), vec!["a".to_string()]);
        assert_eq!(store.purge_expired().unwrap(), 1);
        assert_eq!(reaped.lock().as_slice(), &["a".to_string()]);
        assert_eq!(store.get("b").unwrap().unwrap(), b"1");
    }

    /// What the model holds per key: the value and its deadline.
    type Model = BTreeMap<String, (Vec<u8>, Option<u64>)>;

    /// Take `model`'s entries due at `now` out, in key order.
    fn model_reap(
        model: &mut Model,
        now: u64,
        keys: impl IntoIterator<Item = String>,
    ) -> Vec<String> {
        let due: Vec<String> = keys
            .into_iter()
            .filter(|k| model.get(k).is_some_and(|(_, at)| is_expired(*at, now)))
            .collect();
        for key in &due {
            model.remove(key);
        }
        due
    }

    /// Every public op that reads or moves deadlines, in a seeded random
    /// order on a four-page pool, against a `BTreeMap` model: inserts,
    /// `apply` batches of `At` / `Keep` upserts and removes, point reads,
    /// clock advances, purges, expiry enumerations, scans and reopens
    /// (which reset the floor). Results, listener calls and `record_count`
    /// must agree after every op.
    #[test]
    fn purges_and_expiry_match_a_model_through_reopens() {
        let dir = scratch("floor-model");
        let sim = clock::sim();
        let (mut store, mut reaped) = open_sim(&dir, 4, &sim);
        let mut model = Model::new();
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for step in 0..3_000u64 {
            let now = now_ms(&sim);
            let key = long_key(rng.below(48));
            let value = vec![step as u8; rng.below(200) as usize];
            let deadline = match rng.below(3) {
                0 => None,
                _ => Some((now + rng.below(4_000)).saturating_sub(500)),
            };
            let mut want_reaped = Vec::new();
            match rng.below(12) {
                0 | 1 => {
                    let occupant = model.get(&key).map(|(_, at)| *at);
                    let live = occupant.is_some_and(|at| !is_expired(at, now));
                    assert_eq!(store.insert(&key, &value, deadline).unwrap(), !live);
                    if !live {
                        if occupant.is_some() {
                            want_reaped.push(key.clone());
                        }
                        model.insert(key, (value, deadline));
                    }
                }
                2 | 3 => {
                    let keys: Vec<String> = (0..1 + rng.below(4))
                        .map(|_| long_key(rng.below(48)))
                        .collect();
                    let ops: Vec<BatchOp<'_>> = keys
                        .iter()
                        .map(|key| match rng.below(3) {
                            0 => BatchOp::Remove(key),
                            1 => BatchOp::Upsert {
                                key,
                                value: &value,
                                deadline: Deadline::Keep,
                            },
                            _ => BatchOp::Upsert {
                                key,
                                value: &value,
                                deadline: Deadline::At(deadline),
                            },
                        })
                        .collect();
                    let mut counted = 0;
                    for op in &ops {
                        match *op {
                            BatchOp::Remove(key) => {
                                counted += usize::from(model.remove(key).is_some());
                            }
                            BatchOp::Upsert { key, deadline, .. } => {
                                let at = match deadline {
                                    Deadline::At(at) => at,
                                    Deadline::Keep => model.get(key).and_then(|(_, at)| *at),
                                };
                                model.insert(key.to_string(), (value.clone(), at));
                                counted += 1;
                            }
                        }
                    }
                    assert_eq!(store.apply(&ops).unwrap(), counted, "step {step}");
                }
                4 => {
                    let got = store.get(&key).unwrap();
                    want_reaped = model_reap(&mut model, now, [key.clone()]);
                    assert_eq!(got.as_ref(), model.get(&key).map(|(v, _)| v));
                }
                5 => advance_ms(&sim, rng.below(1_500)),
                6 => {
                    // To the next deadline exactly: the inclusive boundary.
                    let next = model
                        .values()
                        .filter_map(|(_, at)| *at)
                        .filter(|&at| at > now);
                    advance_ms(&sim, next.min().map_or(0, |at| at - now));
                }
                7 | 8 => {
                    let keys: Vec<String> = model.keys().cloned().collect();
                    want_reaped = model_reap(&mut model, now, keys);
                    assert_eq!(store.purge_expired().unwrap(), want_reaped.len());
                }
                9 => {
                    let due: Vec<String> = model
                        .iter()
                        .filter(|(_, (_, at))| is_expired(*at, now))
                        .map(|(k, _)| k.clone())
                        .collect();
                    assert_eq!(store.expired_keys().unwrap(), due, "step {step}");
                }
                10 => {
                    let scan = store.scan().unwrap();
                    let keys: Vec<String> = model.keys().cloned().collect();
                    want_reaped = model_reap(&mut model, now, keys);
                    let live: Vec<(String, Vec<u8>)> = model
                        .iter()
                        .map(|(k, (v, _))| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(scan, live, "step {step}");
                }
                _ => {
                    drop(store);
                    (store, reaped) = open_sim(&dir, 4, &sim);
                }
            }
            assert_eq!(
                std::mem::take(&mut *reaped.lock()),
                want_reaped,
                "step {step}"
            );
            assert_eq!(store.record_count(), model.len(), "step {step}");
            assert_pool_sound(&store);
        }
    }
}
