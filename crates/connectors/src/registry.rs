//! The deployment table: the one place that knows how each in-process
//! variant is opened.
//!
//! A variant is **one row of [`VARIANTS`]**: a name and an opener taking
//! one [`Deployment`] (shard count, the paper's compliant posture, an
//! optional data dir) to a [`Deployed`] — the engine plus whatever
//! keeps it compliant while it runs. `gdpr-serve` and `gdprbench` (through
//! `drivers::build_connector`), the Fig 5–8 / Table 1 / Table 3 harnesses,
//! the conformance fleet and the driver checks all open their stores here,
//! so the §5 "GDPR-compliant" configuration is written once:
//!
//! * kvstore rows: `KvConfig::gdpr_compliant_in_memory()` with the
//!   expiration driver running (strict TTL, reads logged, encryption at
//!   rest and in transit);
//! * relstore rows: `RelConfig::gdpr_compliant_in_memory()` with the 1 s
//!   [`TtlDaemon`] running;
//! * page-store rows: every WAL commit fsynced.
//!
//! Over a data dir the stores persist there — kvstore shard *i* as
//! `DIR/shard-i.aof`, page-store shard *i* under `DIR/shard-i/`, the
//! relstore WAL as `DIR/postgres.wal` — and every engine-indexed row
//! (`redis-mi`, `redis-sharded`, `disk`, `disk-sharded`) restores its
//! index from `DIR/metaindex-shard-i.snap` and writes it back on `close`.
//! A dir laid out for another shard count is refused before anything
//! opens: reading it under a new count would route point lookups away
//! from records that still hold personal data. Without a data dir stores
//! are in memory (disk rows: a fresh scratch dir), so no image is kept.
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

/// How a row opens its stores.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Shard count of the sharded rows.
    pub shards: usize,
    /// The paper's GDPR-compliant store posture (§5).
    pub compliant: bool,
    /// Where store state (and index snapshots) persist across restarts.
    pub data_dir: Option<PathBuf>,
}

impl Default for Deployment {
    fn default() -> Deployment {
        Deployment {
            shards: gdpr_core::shard_count_from_env(),
            compliant: false,
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
/// TTL daemon run until the handle drops.
pub struct Deployed {
    connector: EngineHandle,
    /// How each shard's stores and index came up, as `gdpr-serve` prints
    /// them (`NAME: shard I: ...`).
    pub recovery: Vec<String>,
    /// Whether `close` writes index snapshot images.
    pub snapshots: bool,
    expiring: Vec<Arc<KvStore>>,
    daemon: Option<TtlDaemon>,
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
        }
    }

    /// Run the compliant kvstore shards' expiration drivers.
    fn expiring(mut self, stores: Vec<Arc<KvStore>>, d: &Deployment) -> Deployed {
        if d.compliant {
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

/// A fresh, unique scratch directory under the system temp dir. Harness
/// instances are short-lived and temp-dir hygiene is the OS's job, so the
/// directory is not reaped on drop.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gdpr-registry-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
/// `DIR/shard-I.aof` over a data dir, in memory otherwise.
fn kv_config(d: &Deployment, dir: Option<&Path>, shard: usize) -> kvstore::KvConfig {
    let mut config = if d.compliant {
        kvstore::KvConfig::gdpr_compliant_in_memory()
    } else {
        kvstore::KvConfig::default()
    };
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
        .map(|i| KvStore::open_with_clock(kv_config(d, dir, i), clock.clone()).map_err(store_err))
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
/// data dir, in memory otherwise.
fn rel_config(d: &Deployment, dir: Option<&Path>) -> relstore::RelConfig {
    let mut config = if d.compliant {
        relstore::RelConfig::gdpr_compliant_in_memory()
    } else {
        relstore::RelConfig::default()
    };
    if let Some(dir) = dir {
        config.wal = relstore::Storage::File(dir.join("postgres.wal"));
    }
    config
}

fn postgres(d: &Deployment, indexed: bool) -> GdprResult<Deployed> {
    let db = relstore::Database::open(rel_config(d, data_dir(d, 1)?)).map_err(store_err)?;
    let conn = Arc::new(if indexed {
        PostgresConnector::with_metadata_indices(db)?
    } else {
        PostgresConnector::new(db)?
    });
    let mut handle = Deployed::new(conn.clone());
    if d.compliant {
        let mut daemon = conn.ttl_daemon();
        daemon.start();
        handle.daemon = Some(daemon);
    }
    Ok(handle)
}

/// `n` page stores under the data dir (a fresh scratch dir without one),
/// on one clock, plus each one's WAL recovery line.
fn page_fleet(
    d: &Deployment,
    n: usize,
    name: &str,
) -> GdprResult<(Vec<Arc<PageStore>>, Vec<String>)> {
    let dir = match data_dir(d, n)? {
        Some(dir) => dir.to_path_buf(),
        None => scratch_dir(name),
    };
    let config = PageStoreConfig {
        fsync_wal: d.compliant,
        ..PageStoreConfig::default()
    };
    let stores = crate::disk::open_store_fleet(dir, n, config, clock::wall())?;
    let lines = stores
        .iter()
        .enumerate()
        .map(|(i, store)| format!("{name}: shard {i}: {}", store.recovery()))
        .collect();
    Ok((stores, lines))
}

fn disk(d: &Deployment) -> GdprResult<Deployed> {
    let (mut stores, lines) = page_fleet(d, 1, "disk")?;
    let store = stores.pop().expect("one store");
    let conn = Arc::new(match &d.data_dir {
        None => DiskConnector::with_metadata_index(store)?,
        Some(dir) => DiskConnector::with_metadata_index_snapshot(store, snapshot_path(dir, 0))?,
    });
    let mut handle = Deployed::new(conn.clone());
    handle.recovery = lines;
    Ok(handle.indexed("disk", [conn.index_recovery()]))
}

fn disk_sharded(d: &Deployment) -> GdprResult<Deployed> {
    let (stores, lines) = page_fleet(d, d.shards.max(1), "disk-sharded")?;
    let conn = Arc::new(match &d.data_dir {
        None => ShardedDiskConnector::with_metadata_index(stores)?,
        Some(dir) => ShardedDiskConnector::with_metadata_index_snapshots(stores, dir)?,
    });
    let mut handle = Deployed::new(conn.clone());
    handle.recovery = lines;
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

    /// The paper's compliant posture (§5) as the figure harnesses open it
    /// — `compliant: true` over a scratch dir: strict expiry with the
    /// driver running, a file AOF / WAL fsynced every second, read and
    /// statement logging, encryption at rest and in transit, and the
    /// PostgreSQL TTL daemon running.
    #[test]
    fn compliant_rows_over_a_data_dir_keep_the_paper_posture() {
        use crypto::log::{FsyncPolicy, Storage};
        for name in ["redis", "redis-mi", "postgres", "postgres-mi"] {
            let dir = scratch_dir("posture");
            let d = Deployment {
                compliant: true,
                data_dir: Some(dir.clone()),
                ..Deployment::default()
            };
            let handle = build(name, &d).unwrap();
            assert!(handle.features().is_fully_compliant(), "{name}");
            if name.starts_with("redis") {
                let config = handle.expiring[0].config();
                assert_eq!(config.expiration, kvstore::ExpirationMode::Strict);
                assert_eq!(config.aof, Storage::File(dir.join("shard-0.aof")));
                assert_eq!(config.fsync, FsyncPolicy::EverySec);
                assert!(config.log_reads && config.encrypt_at_rest && config.encrypt_transit);
            } else {
                let config = rel_config(&d, Some(&dir));
                assert_eq!(config.wal, Storage::File(dir.join("postgres.wal")));
                assert_eq!(config.fsync, FsyncPolicy::EverySec);
                assert!(config.log_statements && config.log_reads);
                assert!(config.encrypt_at_rest && config.encrypt_transit);
                assert_eq!(config.ttl_sweep_interval, std::time::Duration::from_secs(1));
                assert!(handle.daemon.is_some(), "{name}: no TTL daemon");
            }
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
