//! The deployment table: the one place that knows how each in-process
//! variant is opened, and the one map from the paper's compliant posture
//! to store configs.
//!
//! A **[`Posture`]** is a set over the three store features of the
//! paper's compliant posture (§5) that Fig 4 prices one at a time:
//! encryption (at rest and in transit), timely deletion and logging.
//! [`kv_config`], [`rel_config`] and [`page_config`] map it to each
//! engine's config, and `posture.contains(Posture::TTL)` decides whether
//! the kvstore expiration driver or the relstore [`TtlDaemon`] runs. A
//! kept log is in memory; a caller that keeps it in a file says where in
//! one line over the mapped config (the rows below: the data dir; Fig 4
//! and Fig 6: their scratch dir).
//!
//! A variant is **one row of [`VARIANTS`]**: a name and an opener taking
//! one [`Deployment`] (shard count, posture, an optional data dir) to a
//! [`Deployed`] — the engine plus whatever keeps it compliant while it
//! runs. `gdpr-serve` and `gdprbench` (through
//! `drivers::build_connector`), the Fig 5–8 / Table 1 / Table 3 harnesses,
//! the conformance fleet and the driver checks all open their stores here.
//!
//! Over a data dir the stores persist there — kvstore shard *i* as
//! `DIR/shard-i.aof`, page-store shard *i* under `DIR/shard-i/`, the
//! relstore WAL as `DIR/postgres.wal` — and every engine-indexed row
//! (`redis-mi`, `redis-sharded`, `disk`, `disk-sharded`) restores its
//! index from `DIR/metaindex-shard-i.snap` and writes it back on `close`.
//! A dir laid out for another shard count is refused before anything
//! opens: reading it under a new count would route point lookups away
//! from records that still hold personal data. Without a data dir stores
//! are in memory, and disk rows keep their pages in a [`ScratchDir`] the
//! handle removes when it drops, so no image is kept.
//!
//! Sharded rows take `shards` (default `GDPR_SHARDS`; CI runs the suites
//! at 1 and 8); unsharded rows are one shard.

use crate::{
    DiskConnector, PostgresConnector, RedisConnector, ShardedDiskConnector, ShardedRedisConnector,
};
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::{EngineHandle, GdprConnector, IndexRecovery};
use kvstore::KvStore;
use pagestore::{PageStore, PageStoreConfig};
use relstore::ttl::TtlDaemon;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A set of the paper's compliant-posture features (§5), the axes Fig 4
/// prices one at a time. [`Posture::STOCK`] is none of them,
/// [`Posture::COMPLIANT`] all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posture(u8);

impl Posture {
    /// No feature: the stock stores, Fig 4's baseline.
    pub const STOCK: Posture = Posture(0);
    /// Encryption at rest and in transit (the LUKS and TLS stand-ins).
    pub const ENCRYPT: Posture = Posture(1);
    /// Timely deletion: strict expiry, the TTL sweep daemon.
    pub const TTL: Posture = Posture(2);
    /// Logging of every interaction, reads included.
    pub const LOG: Posture = Posture(4);
    /// The paper's GDPR-compliant posture: every feature.
    pub const COMPLIANT: Posture = Posture(Self::ENCRYPT.0 | Self::TTL.0 | Self::LOG.0);

    /// Whether every feature of `features` is in this posture.
    pub fn contains(self, features: Posture) -> bool {
        self.0 & features.0 == features.0
    }
}

/// The kvstore config of `posture`: `ENCRYPT` seals at rest and in
/// transit, `TTL` expires strictly, `LOG` keeps an in-memory AOF that logs
/// reads too.
pub fn kv_config(posture: Posture) -> kvstore::KvConfig {
    let mut config = kvstore::KvConfig::default();
    if posture.contains(Posture::ENCRYPT) {
        config.encrypt_at_rest = true;
        config.encrypt_transit = true;
    }
    if posture.contains(Posture::TTL) {
        config.expiration = kvstore::ExpirationMode::Strict;
    }
    if posture.contains(Posture::LOG) {
        config.aof = kvstore::config::Storage::Memory;
        config.log_reads = true;
    }
    config
}

/// The relstore config of `posture`: `ENCRYPT` keeps an in-memory WAL
/// sealed at rest and seals in transit, `LOG` logs statements and reads.
/// `TTL` changes no knob: it runs the [`TtlDaemon`].
pub fn rel_config(posture: Posture) -> relstore::RelConfig {
    let mut config = relstore::RelConfig::default();
    if posture.contains(Posture::ENCRYPT) {
        // At-rest encryption needs something persisted to seal: the WAL,
        // as LUKS under $PGDATA would.
        config.wal = relstore::Storage::Memory;
        config.encrypt_at_rest = true;
        config.encrypt_transit = true;
    }
    if posture.contains(Posture::LOG) {
        config.log_statements = true;
        config.log_reads = true;
    }
    config
}

/// The page-store config of `posture`: `LOG` fsyncs every WAL commit.
pub fn page_config(posture: Posture) -> PageStoreConfig {
    PageStoreConfig {
        fsync_wal: posture.contains(Posture::LOG),
        ..PageStoreConfig::default()
    }
}

/// How a row opens its stores.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Shard count of the sharded rows.
    pub shards: usize,
    /// The store features the row runs with (`gdpr-serve --compliant`:
    /// [`Posture::COMPLIANT`]).
    pub posture: Posture,
    /// Where store state (and index snapshots) persist across restarts.
    pub data_dir: Option<PathBuf>,
}

impl Default for Deployment {
    fn default() -> Deployment {
        Deployment {
            shards: gdpr_core::shard_count_from_env(),
            posture: Posture::STOCK,
            data_dir: None,
        }
    }
}

/// One in-process variant.
pub struct Variant {
    pub name: &'static str,
    /// Whether the row reopens a data dir that already holds its state.
    /// relstore refuses a non-empty WAL at open — it has no restart path —
    /// so a `postgres*` row takes a data dir only when it is fresh.
    pub restarts: bool,
    open: fn(&Deployment) -> GdprResult<Deployed>,
}

impl Variant {
    pub fn open(&self, deployment: &Deployment) -> GdprResult<Deployed> {
        (self.open)(deployment)
    }
}

/// Every in-process variant. `remote` is not listed — it is a transport
/// wrapper, and the harnesses that care wrap each of these behind a
/// served socket themselves.
pub const VARIANTS: &[Variant] = &[
    Variant {
        name: "redis",
        restarts: true,
        open: |d| redis(d, false),
    },
    Variant {
        name: "redis-mi",
        restarts: true,
        open: |d| redis(d, true),
    },
    Variant {
        name: "redis-sharded",
        restarts: true,
        open: |d| redis_sharded(d, true),
    },
    Variant {
        name: "redis-sharded-scan",
        restarts: true,
        open: |d| redis_sharded(d, false),
    },
    Variant {
        name: "postgres",
        restarts: false,
        open: |d| postgres(d, false),
    },
    Variant {
        name: "postgres-mi",
        restarts: false,
        open: |d| postgres(d, true),
    },
    Variant {
        name: "disk",
        restarts: true,
        open: disk,
    },
    Variant {
        name: "disk-sharded",
        restarts: true,
        open: disk_sharded,
    },
];

/// The row named `name`.
pub fn variant(name: &str) -> Option<&'static Variant> {
    VARIANTS.iter().find(|v| v.name == name)
}

/// The driver-facing names, in registry order.
pub fn names() -> Vec<&'static str> {
    VARIANTS.iter().map(|v| v.name).collect()
}

/// Open the row named `name`.
pub fn build(name: &str, deployment: &Deployment) -> GdprResult<Deployed> {
    variant(name)
        .ok_or_else(|| GdprError::Store(format!("no variant {name}")))?
        .open(deployment)
}

/// An opened deployment: the engine (reached through `Deref`) plus what
/// keeps it compliant — the kvstore expiration drivers and the relstore
/// TTL daemon run until the handle drops, and a disk row's scratch dir is
/// removed then.
pub struct Deployed {
    connector: EngineHandle,
    /// How each shard's stores and index came up, as `gdpr-serve` prints
    /// them (`NAME: shard I: ...`).
    pub recovery: Vec<String>,
    /// Whether `close` writes index snapshot images.
    pub snapshots: bool,
    expiring: Vec<Arc<KvStore>>,
    daemon: Option<TtlDaemon>,
    /// Declared last, so it is removed after this handle's engine
    /// reference has dropped.
    scratch: Option<ScratchDir>,
}

impl Deployed {
    /// A handle keeping nothing else running (the `remote` driver arm).
    pub fn new(connector: EngineHandle) -> Deployed {
        Deployed {
            connector,
            recovery: Vec::new(),
            snapshots: false,
            expiring: Vec::new(),
            daemon: None,
            scratch: None,
        }
    }

    /// Run the kvstore shards' expiration drivers if the posture has `TTL`.
    fn expiring(mut self, stores: Vec<Arc<KvStore>>, d: &Deployment) -> Deployed {
        if d.posture.contains(Posture::TTL) {
            for store in &stores {
                store.start_expiration_driver();
            }
            self.expiring = stores;
        }
        self
    }

    /// Record how each shard's index came up (`Some` exactly when it was
    /// opened over a snapshot image).
    fn indexed<'a>(
        mut self,
        name: &str,
        recoveries: impl IntoIterator<Item = Option<&'a IndexRecovery>>,
    ) -> Deployed {
        for (i, recovery) in recoveries.into_iter().enumerate() {
            if let Some(recovery) = recovery {
                self.recovery.push(format!("{name}: shard {i}: {recovery}"));
                self.snapshots = true;
            }
        }
        self
    }
}

impl std::ops::Deref for Deployed {
    type Target = EngineHandle;

    fn deref(&self) -> &EngineHandle {
        &self.connector
    }
}

impl Drop for Deployed {
    fn drop(&mut self) {
        for store in &self.expiring {
            store.stop_expiration_driver();
        }
    }
}

/// A fresh, unique directory under the system temp dir, removed with
/// everything in it when dropped: a store opened in it leaves no personal
/// data behind.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "gdpr-registry-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The deployment's data dir, created — refused when its shard entries
/// (`shard-I.aof`, `shard-I/`) are neither none nor exactly `0..shards`.
/// O(entries): a snapshot-restored boot stays O(index);
/// `ShardedEngine::verify_placement` remains the deep check.
fn data_dir(d: &Deployment, shards: usize) -> GdprResult<Option<&Path>> {
    let Some(dir) = d.data_dir.as_deref() else {
        return Ok(None);
    };
    let io_err = |e: std::io::Error| GdprError::Store(format!("data dir {dir:?}: {e}"));
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let mut found: Vec<usize> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let name = entry.map_err(io_err)?.file_name();
        let shard = name.to_str().and_then(|n| n.strip_prefix("shard-"));
        if let Some(i) = shard.and_then(|s| s.strip_suffix(".aof").unwrap_or(s).parse().ok()) {
            found.push(i);
        }
    }
    found.sort_unstable();
    found.dedup();
    if found.is_empty() || found.iter().copied().eq(0..shards) {
        return Ok(Some(dir));
    }
    Err(GdprError::Store(format!(
        "data dir {dir:?} holds {} shards ({found:?}) but this deployment opens {shards}: \
         records would be routed away from the shard that holds them; reopen with the \
         dir's shard count",
        found.len()
    )))
}

/// Where shard `i` keeps its index image under a data dir.
fn snapshot_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("metaindex-shard-{i}.snap"))
}

fn store_err(e: impl ToString) -> GdprError {
    GdprError::Store(e.to_string())
}

/// kvstore shard `shard`'s config: persisted (and replayed) as
/// `DIR/shard-I.aof` over a data dir, whatever the posture.
fn kv_shard_config(d: &Deployment, dir: Option<&Path>, shard: usize) -> kvstore::KvConfig {
    let mut config = kv_config(d.posture);
    if let Some(dir) = dir {
        config.aof = kvstore::config::Storage::File(dir.join(format!("shard-{shard}.aof")));
    }
    config
}

/// `n` kvstore shards on one clock — the sharded engine requires a single
/// clock so timestamps and TTL deadlines are comparable fleet-wide.
fn kv_fleet(d: &Deployment, n: usize) -> GdprResult<Vec<Arc<KvStore>>> {
    let dir = data_dir(d, n)?;
    let clock = clock::wall();
    (0..n)
        .map(|i| {
            KvStore::open_with_clock(kv_shard_config(d, dir, i), clock.clone()).map_err(store_err)
        })
        .collect()
}

fn redis(d: &Deployment, indexed: bool) -> GdprResult<Deployed> {
    let stores = kv_fleet(d, 1)?;
    let store = Arc::clone(&stores[0]);
    let conn = Arc::new(match (indexed, &d.data_dir) {
        (false, _) => RedisConnector::new(store),
        (true, None) => RedisConnector::with_metadata_index(store)?,
        (true, Some(dir)) => {
            RedisConnector::with_metadata_index_snapshot(store, snapshot_path(dir, 0))?
        }
    });
    Ok(Deployed::new(conn.clone())
        .indexed(conn.name(), [conn.index_recovery()])
        .expiring(stores, d))
}

fn redis_sharded(d: &Deployment, indexed: bool) -> GdprResult<Deployed> {
    let stores = kv_fleet(d, d.shards.max(1))?;
    let fleet = stores.clone();
    let conn = Arc::new(match (indexed, &d.data_dir) {
        (false, _) => ShardedRedisConnector::new(fleet)?,
        (true, None) => ShardedRedisConnector::with_metadata_index(fleet)?,
        (true, Some(dir)) => ShardedRedisConnector::with_metadata_index_snapshots(fleet, dir)?,
    });
    Ok(Deployed::new(conn.clone())
        .indexed(
            conn.name(),
            conn.shards().iter().map(|s| s.index_recovery()),
        )
        .expiring(stores, d))
}

/// The relstore config: the WAL persists as `DIR/postgres.wal` over a
/// data dir, whatever the posture.
fn rel_row_config(d: &Deployment, dir: Option<&Path>) -> relstore::RelConfig {
    let mut config = rel_config(d.posture);
    if let Some(dir) = dir {
        config.wal = relstore::Storage::File(dir.join("postgres.wal"));
    }
    config
}

fn postgres(d: &Deployment, indexed: bool) -> GdprResult<Deployed> {
    let db = relstore::Database::open(rel_row_config(d, data_dir(d, 1)?)).map_err(store_err)?;
    let conn = Arc::new(if indexed {
        PostgresConnector::with_metadata_indices(db)?
    } else {
        PostgresConnector::new(db)?
    });
    let mut handle = Deployed::new(conn.clone());
    if d.posture.contains(Posture::TTL) {
        let mut daemon = conn.ttl_daemon();
        daemon.start();
        handle.daemon = Some(daemon);
    }
    Ok(handle)
}

/// Page stores, each one's WAL recovery line, and the scratch dir they
/// live in when the deployment has no data dir.
type PageFleet = (Vec<Arc<PageStore>>, Vec<String>, Option<ScratchDir>);

/// `n` page stores on one clock under the data dir, or under a fresh
/// scratch dir without one (returned, for the handle to keep).
fn page_fleet(d: &Deployment, n: usize, name: &str) -> GdprResult<PageFleet> {
    let (dir, scratch) = match data_dir(d, n)? {
        Some(dir) => (dir.to_path_buf(), None),
        None => {
            let scratch = ScratchDir::new(name);
            (scratch.to_path_buf(), Some(scratch))
        }
    };
    let stores = crate::disk::open_store_fleet(dir, n, page_config(d.posture), clock::wall())?;
    let lines = stores
        .iter()
        .enumerate()
        .map(|(i, store)| format!("{name}: shard {i}: {}", store.recovery()))
        .collect();
    Ok((stores, lines, scratch))
}

fn disk(d: &Deployment) -> GdprResult<Deployed> {
    let (mut stores, lines, scratch) = page_fleet(d, 1, "disk")?;
    let store = stores.pop().expect("one store");
    let conn = Arc::new(match &d.data_dir {
        None => DiskConnector::with_metadata_index(store)?,
        Some(dir) => DiskConnector::with_metadata_index_snapshot(store, snapshot_path(dir, 0))?,
    });
    let mut handle = Deployed::new(conn.clone());
    handle.recovery = lines;
    handle.scratch = scratch;
    Ok(handle.indexed("disk", [conn.index_recovery()]))
}

fn disk_sharded(d: &Deployment) -> GdprResult<Deployed> {
    let (stores, lines, scratch) = page_fleet(d, d.shards.max(1), "disk-sharded")?;
    let conn = Arc::new(match &d.data_dir {
        None => ShardedDiskConnector::with_metadata_index(stores)?,
        Some(dir) => ShardedDiskConnector::with_metadata_index_snapshots(stores, dir)?,
    });
    let mut handle = Deployed::new(conn.clone());
    handle.recovery = lines;
    handle.scratch = scratch;
    Ok(handle.indexed(
        "disk-sharded",
        conn.shards().iter().map(|s| s.index_recovery()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_builds_and_reports_its_registered_name() {
        for v in VARIANTS {
            let handle = v.open(&Deployment::default()).unwrap();
            assert_eq!(handle.name(), v.name, "registry name drifted");
            assert_eq!(handle.record_count(), 0, "{}: fresh instance", v.name);
            assert!(!handle.snapshots, "{}: no data dir, no image", v.name);
        }
    }

    /// Fig 4's columns: baseline, encrypt, ttl, log, combined.
    const FIG4: [Posture; 5] = [
        Posture::STOCK,
        Posture::ENCRYPT,
        Posture::TTL,
        Posture::LOG,
        Posture::COMPLIANT,
    ];

    /// The one posture table: every config a caller opens, as a literal.
    /// Fig 4's ten cells (five columns × kvstore, relstore) move a kept log
    /// into their scratch dir, as `fig4::{kv_store, rel_db}` do, and
    /// nothing else; the registry rows, stock and compliant, with and
    /// without a data dir, persist there whatever the posture. `TTL` alone
    /// runs the expiry machinery.
    #[test]
    fn one_posture_table_lists_every_config_each_caller_opens() {
        use crypto::log::{FsyncPolicy::EverySec, Storage};
        use kvstore::{ExpirationMode::Strict, KvConfig};
        use relstore::RelConfig;
        let scratch = ScratchDir::new("posture");
        let (aof, wal) = (scratch.join("redis.aof"), scratch.join("postgres.wal"));
        let kv_in_scratch = |mut config: KvConfig| {
            if config.aof != Storage::Disabled {
                config.aof = Storage::File(aof.clone());
            }
            config
        };
        let rel_in_scratch = |mut config: RelConfig| {
            if config.wal != Storage::Disabled {
                config.wal = Storage::File(wal.clone());
            }
            config
        };
        let kv = KvConfig::default;
        let rel = RelConfig::default;
        let fig4 = [
            (kv(), rel(), false),
            (
                KvConfig {
                    encrypt_at_rest: true,
                    encrypt_transit: true,
                    ..kv()
                },
                RelConfig {
                    wal: Storage::File(wal.clone()),
                    fsync: EverySec,
                    encrypt_at_rest: true,
                    encrypt_transit: true,
                    ..rel()
                },
                false,
            ),
            (
                KvConfig {
                    expiration: Strict,
                    ..kv()
                },
                RelConfig {
                    ttl_sweep_interval: std::time::Duration::from_secs(1),
                    ..rel()
                },
                true,
            ),
            (
                KvConfig {
                    aof: Storage::File(aof.clone()),
                    fsync: EverySec,
                    log_reads: true,
                    ..kv()
                },
                RelConfig {
                    log_statements: true,
                    log_reads: true,
                    ..rel()
                },
                false,
            ),
            (
                KvConfig {
                    expiration: Strict,
                    aof: Storage::File(aof.clone()),
                    fsync: EverySec,
                    log_reads: true,
                    encrypt_at_rest: true,
                    encrypt_transit: true,
                    ..kv()
                },
                RelConfig {
                    wal: Storage::File(wal.clone()),
                    fsync: EverySec,
                    encrypt_at_rest: true,
                    encrypt_transit: true,
                    log_statements: true,
                    log_reads: true,
                    ttl_sweep_interval: std::time::Duration::from_secs(1),
                    ..rel()
                },
                true,
            ),
        ];
        for (posture, (kv, rel, ttl)) in FIG4.into_iter().zip(fig4) {
            assert_eq!(kv_in_scratch(kv_config(posture)), kv, "fig4 {posture:?}");
            assert_eq!(rel_in_scratch(rel_config(posture)), rel, "fig4 {posture:?}");
            assert_eq!(posture.contains(Posture::TTL), ttl, "fig4 {posture:?}");
        }

        let compliant_kv = |aof| KvConfig {
            expiration: Strict,
            aof,
            log_reads: true,
            encrypt_at_rest: true,
            encrypt_transit: true,
            ..kv()
        };
        let compliant_rel = |wal| RelConfig {
            wal,
            encrypt_at_rest: true,
            encrypt_transit: true,
            log_statements: true,
            log_reads: true,
            ..rel()
        };
        let dir: &Path = &scratch;
        let (aof, wal) = (dir.join("shard-0.aof"), dir.join("postgres.wal"));
        // (posture, data dir, kvstore shard 0, relstore, fsync_wal, TTL runs)
        let rows = [
            (Posture::STOCK, None, kv(), rel(), false, false),
            (
                Posture::STOCK,
                Some(dir),
                KvConfig {
                    aof: Storage::File(aof.clone()),
                    ..kv()
                },
                RelConfig {
                    wal: Storage::File(wal.clone()),
                    ..rel()
                },
                false,
                false,
            ),
            (
                Posture::COMPLIANT,
                None,
                compliant_kv(Storage::Memory),
                compliant_rel(Storage::Memory),
                true,
                true,
            ),
            (
                Posture::COMPLIANT,
                Some(dir),
                compliant_kv(Storage::File(aof)),
                compliant_rel(Storage::File(wal)),
                true,
                true,
            ),
        ];
        for (posture, dir, kv, rel, fsync_wal, ttl) in rows {
            let d = Deployment {
                posture,
                data_dir: dir.map(Path::to_path_buf),
                ..Deployment::default()
            };
            assert_eq!(kv_shard_config(&d, dir, 0), kv, "{d:?}");
            assert_eq!(rel_row_config(&d, dir), rel, "{d:?}");
            let page = PageStoreConfig {
                fsync_wal,
                ..PageStoreConfig::default()
            };
            assert_eq!(page_config(posture), page, "{d:?}");
            for v in VARIANTS {
                let fresh = ScratchDir::new("row");
                let d = Deployment {
                    data_dir: dir.map(|_| fresh.to_path_buf()),
                    ..d.clone()
                };
                let handle = v.open(&d).unwrap();
                let paged = v.name.starts_with("disk");
                if !paged {
                    let runs_ttl = !handle.expiring.is_empty() || handle.daemon.is_some();
                    assert_eq!(runs_ttl, ttl, "{} {d:?}", v.name);
                    let compliant = handle.features().is_fully_compliant();
                    assert_eq!(compliant, posture == Posture::COMPLIANT, "{}", v.name);
                }
                let scratch = handle.scratch.is_some();
                assert_eq!(scratch, paged && dir.is_none(), "{} {d:?}", v.name);
            }
        }
    }

    #[test]
    fn scratch_dirs_are_unique_and_cleaned() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(*a, *b);
        let path = a.to_path_buf();
        assert!(path.exists());
        drop(a);
        assert!(!path.exists());
        drop(b);
    }

    /// A disk row opened without a data dir keeps its pages — corpus
    /// records included — only as long as its handle.
    #[test]
    fn a_disk_row_without_a_data_dir_removes_its_pages_on_drop() {
        for name in ["disk", "disk-sharded"] {
            let handle = build(name, &Deployment::default()).unwrap();
            let dir = handle.scratch.as_ref().unwrap().to_path_buf();
            let record = gdpr_core::record::PersonalRecord::new(
                "k",
                "payload",
                gdpr_core::record::Metadata::new(
                    "neo",
                    vec!["ads".into()],
                    std::time::Duration::from_secs(3600),
                ),
            );
            let create = gdpr_core::GdprQuery::CreateRecord(record);
            handle
                .execute(&gdpr_core::Session::controller(), &create)
                .unwrap();
            assert!(dir.exists(), "{name}");
            drop(handle);
            assert!(!dir.exists(), "{name}: {dir:?} survived its handle");
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names = names();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), VARIANTS.len());
    }
}
