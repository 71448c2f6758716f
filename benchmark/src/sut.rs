//! The adapter: every call the benchmark makes into the program goes through
//! a name this file imports, re-exports or wraps. `README.md` lists the
//! surface; a later change that renames one of these breaks the benchmark
//! here and nowhere else.

use crate::trace;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use connectors::{DiskConnector, DiskStore, RedisConnector, RedisStore, ShardedRedisConnector};
use gdpr_core::compliance::FeatureReport;
use gdpr_core::connector::SpaceReport;
use gdpr_core::error::GdprResult;
use gdpr_core::store::ExpiryListener;
use gdpr_core::tenant::TenantId;
use kvstore::{KvConfig, KvStore};

pub use clock::wall as wall_clock;
pub use crypto::Volume;
pub use gdpr_core::acl::authorize;
pub use gdpr_core::audit::AuditTrail;
pub use gdpr_core::wire::serialize as serialize_record;
pub use gdpr_core::{
    ComplianceEngine, EngineHandle, GdprConnector, GdprError, GdprQuery, GdprResponse, IndexBatch,
    MetadataIndex, MetadataUpdate, PersonalRecord, RecordPredicate, RecordStore, Session,
    ShardedEngine,
};
pub use gdpr_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    MetricsReport, RequestBody, ResponseBody, MAX_FRAME,
};
pub use gdpr_server::{FrameDecoder, GdprServer, ServerConfig};
pub use pagestore::{PageStore, PageStoreConfig};
pub use workload::datagen::{key_of, record_of, CorpusConfig};
pub use workload::gdpr::{load_corpus, stable_corpus};
pub use workload::oracle::{responses_match, Oracle};
pub use workload::{GdprWorkload, GdprWorkloadKind};

/// Pinned: `GDPR_SHARDS` is ignored.
pub const SHARDS: usize = 4;
/// Server executor threads and the most client threads, = `nproc` of the box
/// the baseline was recorded on.
pub const CORES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `redis-mi`: one in-memory `kvstore` behind an indexed engine.
    RedisMi,
    /// `redis-sharded`: [`SHARDS`] `kvstore`s behind the hash router.
    RedisSharded,
    /// `disk`: one `PageStore`, WAL fsynced per commit, pool smaller than
    /// the data.
    Disk { pool_pages: usize },
}

/// The flush policy of the `disk` deployment while it is measured: the
/// program's default. The WAL is written per commit but not fsynced;
/// checkpoints (every 512 WAL frames) fsync the data file. Durable-before-ack
/// is measured apart, by [`durable_commit_ms`]: on the box the baseline was
/// recorded on one `fdatasync` took 0.25 ms in one hour and 9 to 33 ms in the
/// next, so a workload that waits for one per commit measures the virtual
/// disk's neighbours and no bound would hold.
fn measured_disk_config(pool_pages: usize) -> PageStoreConfig {
    PageStoreConfig {
        pool_pages,
        fsync_wal: false,
        ..PageStoreConfig::default()
    }
}

// ---------------------------------------------------------------------------
// TracedStore
// ---------------------------------------------------------------------------

/// Where a [`TracedStore`] finds the program's store. `RedisStore` cannot be
/// built outside its crate, so the Redis arm borrows the one inside a
/// one-shard engine the connector crate built.
enum Inner {
    Redis(Arc<ComplianceEngine<RedisStore>>),
    Disk(DiskStore),
}

/// A `RecordStore` that forwards to the program's store and records one span
/// per call while tracing is on. Both engines are generic over their store,
/// so the traced deployments are the program's own engines over this.
pub struct TracedStore {
    inner: Inner,
}

impl TracedStore {
    fn redis(kv: Arc<KvStore>) -> GdprResult<TracedStore> {
        let holder = ShardedRedisConnector::new(vec![kv])?;
        let engine = Arc::clone(&holder.engine().shards()[0]);
        Ok(TracedStore {
            inner: Inner::Redis(engine),
        })
    }

    fn disk(store: Arc<PageStore>) -> TracedStore {
        TracedStore {
            inner: Inner::Disk(DiskStore::over(store, "disk")),
        }
    }

    fn store(&self) -> &dyn RecordStore {
        match &self.inner {
            Inner::Redis(engine) => engine.store(),
            Inner::Disk(store) => store,
        }
    }
}

impl RecordStore for TracedStore {
    fn clock(&self) -> clock::SharedClock {
        self.store().clock()
    }
    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        trace::span("store.fetch", || self.store().fetch(key), |_| 0)
    }
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        trace::span(
            "store.put",
            || self.store().put(record),
            |_| serialize_record(record).len() as u64,
        )
    }
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        trace::span(
            "store.rewrite",
            || self.store().rewrite(record, ttl_changed),
            |_| serialize_record(record).len() as u64,
        )
    }
    fn delete(&self, key: &str) -> GdprResult<bool> {
        trace::span("store.delete", || self.store().delete(key), |_| 0)
    }
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        trace::span(
            "store.scan",
            || self.store().scan(),
            |r| r.as_ref().map_or(0, |v| v.len() as u64),
        )
    }
    fn purge_expired(&self) -> GdprResult<usize> {
        trace::span(
            "store.purge_expired",
            || self.store().purge_expired(),
            |_| 0,
        )
    }
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        self.store().expired_keys()
    }
    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.store().deadline_ms(key)
    }
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        self.store().put_with_deadline(record, deadline_ms)
    }
    fn persistence_generation(&self) -> Option<u64> {
        self.store().persistence_generation()
    }
    fn select(&self, pred: &RecordPredicate) -> Option<GdprResult<Vec<PersonalRecord>>> {
        self.store().select(pred)
    }
    fn delete_matching(&self, pred: &RecordPredicate) -> Option<GdprResult<usize>> {
        self.store().delete_matching(pred)
    }
    fn on_expiry(&self, listener: ExpiryListener) {
        self.store().on_expiry(listener)
    }
    fn space_report(&self) -> SpaceReport {
        self.store().space_report()
    }
    fn record_count(&self) -> usize {
        self.store().record_count()
    }
    fn features(&self) -> FeatureReport {
        self.store().features()
    }
    fn name(&self) -> &str {
        self.store().name()
    }
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

/// The traced deployments keep their concrete engine so the per-layer
/// metrics can read the audit trail and the index partitions.
pub enum TracedEngine {
    Single(Arc<ComplianceEngine<TracedStore>>),
    Sharded(Arc<ShardedEngine<TracedStore>>),
}

impl TracedEngine {
    pub fn audit(&self) -> &AuditTrail {
        match self {
            TracedEngine::Single(engine) => engine.audit(),
            TracedEngine::Sharded(engine) => engine.audit(),
        }
    }

    /// Bytes held by every index partition.
    pub fn index_bytes(&self) -> usize {
        match self {
            TracedEngine::Single(engine) => engine.metadata_index().map_or(0, |i| i.size_bytes()),
            TracedEngine::Sharded(engine) => engine
                .shards()
                .iter()
                .filter_map(|shard| shard.metadata_index())
                .map(|i| i.size_bytes())
                .sum(),
        }
    }
}

/// One built, loaded deployment.
pub struct Sut {
    /// What in-process clients call and what the server serves.
    pub engine: EngineHandle,
    pub traced: Option<TracedEngine>,
    /// Set on the `disk` deployment.
    pub pages: Option<Arc<PageStore>>,
    /// Set on the wire deployment.
    pub server: Option<GdprServer>,
}

/// A backend's own error as the engine-level `Store` error.
pub fn store_err(e: impl ToString) -> GdprError {
    GdprError::Store(e.to_string())
}

fn kv_fleet(n: usize) -> GdprResult<Vec<Arc<KvStore>>> {
    // One clock for the fleet, as the sharded engine requires.
    let clock = clock::wall();
    (0..n)
        .map(|_| KvStore::open_with_clock(KvConfig::default(), clock.clone()).map_err(store_err))
        .collect()
}

fn open_pages(dir: &Path, config: PageStoreConfig) -> GdprResult<Arc<PageStore>> {
    PageStore::open(dir, config, clock::wall()).map_err(store_err)
}

impl Sut {
    /// Build `backend`, load `corpus` into it and, for `wire`, serve it on
    /// an ephemeral loopback port. `dir` is used by the `disk` backend only.
    pub fn build(
        backend: Backend,
        traced: bool,
        wire: bool,
        corpus: &CorpusConfig,
        dir: &Path,
    ) -> GdprResult<Sut> {
        let mut sut = match backend {
            Backend::RedisMi => {
                let kv = kv_fleet(1)?.remove(0);
                if traced {
                    Sut::single(ComplianceEngine::with_metadata_index(TracedStore::redis(
                        kv,
                    )?)?)
                } else {
                    Sut::plain(Arc::new(RedisConnector::with_metadata_index(kv)?))
                }
            }
            Backend::RedisSharded => {
                let fleet = kv_fleet(SHARDS)?;
                if traced {
                    let stores = fleet
                        .into_iter()
                        .map(TracedStore::redis)
                        .collect::<GdprResult<Vec<_>>>()?;
                    let engine = Arc::new(
                        ShardedEngine::with_metadata_index(stores)?.named("redis-sharded"),
                    );
                    Sut {
                        engine: engine.clone(),
                        traced: Some(TracedEngine::Sharded(engine)),
                        pages: None,
                        server: None,
                    }
                } else {
                    Sut::plain(Arc::new(ShardedRedisConnector::with_metadata_index(fleet)?))
                }
            }
            Backend::Disk { pool_pages } => {
                // Bulk load without per-commit fsync, make it durable with a
                // checkpoint, then reopen under the measured policy.
                let bulk = PageStoreConfig {
                    pool_pages,
                    ..PageStoreConfig::default()
                };
                let loader = DiskConnector::with_metadata_index(open_pages(dir, bulk)?)?;
                load_corpus(&loader, corpus)?;
                loader.store().checkpoint().map_err(store_err)?;
                drop(loader);
                return Sut::reopen_disk(pool_pages, traced, dir);
            }
        };
        load_corpus(&sut.engine, corpus)?;
        if wire {
            let config = ServerConfig {
                workers: CORES,
                encrypt: None, // pinned plaintext: `GDPR_ENCRYPT` is ignored
                ..ServerConfig::default()
            };
            let server = GdprServer::bind(sut.engine.clone(), "127.0.0.1:0", config)
                .map_err(|e| GdprError::Store(format!("bind: {e}")))?;
            sut.server = Some(server);
        }
        Ok(sut)
    }

    /// Open the `disk` deployment from what `dir` holds (WAL recovery and
    /// index backfill included) under the measured flush policy.
    pub fn reopen_disk(pool_pages: usize, traced: bool, dir: &Path) -> GdprResult<Sut> {
        let pages = open_pages(dir, measured_disk_config(pool_pages))?;
        let mut sut = if traced {
            Sut::single(ComplianceEngine::with_metadata_index(TracedStore::disk(
                pages.clone(),
            ))?)
        } else {
            Sut::plain(Arc::new(DiskConnector::with_metadata_index(pages.clone())?))
        };
        sut.pages = Some(pages);
        Ok(sut)
    }

    fn plain(engine: EngineHandle) -> Sut {
        Sut {
            engine,
            traced: None,
            pages: None,
            server: None,
        }
    }

    fn single(engine: ComplianceEngine<TracedStore>) -> Sut {
        let engine = Arc::new(engine);
        Sut {
            engine: engine.clone(),
            traced: Some(TracedEngine::Single(engine)),
            pages: None,
            server: None,
        }
    }

    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }
}

/// A bare (unsharded) traced engine over one in-memory store, for the
/// router-overhead replay.
pub fn bare_engine(corpus: &CorpusConfig) -> GdprResult<EngineHandle> {
    let kv = kv_fleet(1)?.remove(0);
    let engine: EngineHandle = Arc::new(ComplianceEngine::with_metadata_index(
        TracedStore::redis(kv)?,
    )?);
    load_corpus(&engine, corpus)?;
    Ok(engine)
}

/// Milliseconds per single-record commit on a fresh store that fsyncs its
/// WAL before acknowledging (`fsync_wal: true`).
pub fn durable_commit_ms(dir: &Path, values: &[String]) -> GdprResult<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let config = PageStoreConfig {
        fsync_wal: true,
        ..PageStoreConfig::default()
    };
    let pages = open_pages(dir, config)?;
    let commits = values.len().min(100);
    let started = std::time::Instant::now();
    for (i, value) in values.iter().take(commits).enumerate() {
        pages
            .insert(&key_of(i), value.as_bytes(), None)
            .map_err(store_err)?;
    }
    Ok(started.elapsed().as_secs_f64() * 1e3 / commits.max(1) as f64)
}

// ---------------------------------------------------------------------------
// Wire client
// ---------------------------------------------------------------------------

/// One benchmark-owned client connection: the program's frame and payload
/// codecs over a blocking socket.
pub struct WireConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tenant: TenantId,
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> io::Result<WireConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireConn {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            writer: stream,
            tenant: TenantId::default(),
        })
    }

    /// Send one request; returns the payload bytes written.
    pub fn send(&mut self, seq: u64, body: &RequestBody) -> io::Result<usize> {
        let payload = encode_request(seq, &self.tenant, body);
        write_frame(&mut self.writer, &payload)?;
        Ok(payload.len())
    }

    /// Block for the next reply; returns it decoded with its payload size.
    pub fn recv(&mut self) -> io::Result<(u64, ResponseBody, usize)> {
        let payload = read_frame(&mut self.reader, MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let (seq, body) = decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((seq, body, payload.len()))
    }

    /// The server's stage histograms and counters, over the wire.
    pub fn metrics(&mut self) -> io::Result<MetricsReport> {
        self.send(u64::MAX, &RequestBody::GetMetrics)?;
        match self.recv()? {
            (u64::MAX, ResponseBody::Metrics(report), _) => Ok(report),
            (seq, other, _) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("GetMetrics answered seq {seq} with {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch space
// ---------------------------------------------------------------------------

/// Where the benchmark may write: `$CARGO_TARGET_DIR/e2e` (the driver sets
/// it inside the checkout), else `target/e2e` under the working directory.
pub fn scratch_root() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join("e2e")
}
