//! The sharded Redis-shaped connector: N independent [`kvstore::KvStore`]
//! instances behind one [`gdpr_core::ShardedEngine`] router.
//!
//! The single-store connector serializes every operation through one
//! store-wide lock (the real Redis is single-threaded by design, and the
//! reproduction keeps that shape). Sharding gives each key range its own
//! store, its own lock, its own [`gdpr_core::MetadataIndex`], and its own
//! expiry listener, so point operations on disjoint keys proceed in
//! parallel — the scale-out story the roadmap's millions-of-users target
//! needs — while the router keeps every compliance semantic (authorization,
//! visibility, audit ordering, TTL scrubbing) exactly as the unsharded
//! engine defines it. The conformance suite runs this variant alongside
//! the others, and `tests/proptests.rs` pins shard-count invariance.
//!
//! Two variants, mirroring the unsharded pair:
//!
//! * [`ShardedRedisConnector::new`] — each shard resolves metadata
//!   predicates by scanning its own keyspace (`redis-sharded-scan`).
//! * [`ShardedRedisConnector::with_metadata_index`] — each shard's engine
//!   maintains a per-shard index; store-side TTL reaps invalidate only the
//!   owning shard's index (`redis-sharded`).

use crate::redis::RedisStore;
use crate::Connector;
use gdpr_core::error::GdprResult;
use gdpr_core::sharded::ShardedEngine;
use kvstore::KvStore;
use std::sync::Arc;

/// GDPR connector hash-partitioning records across N key-value stores.
pub type ShardedRedisConnector = Connector<ShardedEngine<RedisStore>>;

fn backends(stores: Vec<Arc<KvStore>>) -> Vec<RedisStore> {
    stores
        .into_iter()
        .map(|s| RedisStore::over(s, "redis"))
        .collect()
}

impl ShardedRedisConnector {
    /// Wrap open stores, one per shard, scan-based (paper-faithful within
    /// each shard: every metadata query scans the shard's keyspace).
    pub fn new(stores: Vec<Arc<KvStore>>) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::new(backends(stores))?.named("redis-sharded-scan"),
        ))
    }

    /// Wrap open stores with a per-shard engine-maintained metadata index —
    /// the headline `redis-sharded` variant.
    pub fn with_metadata_index(stores: Vec<Arc<KvStore>>) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::with_metadata_index(backends(stores))?.named("redis-sharded"),
        ))
    }

    /// The snapshot-aware sharded open path: as
    /// [`Self::with_metadata_index`], but shard *i* recovers its index
    /// from `dir/metaindex-shard-i.snap` when that image matches the
    /// shard store's AOF position and was written as shard *i* of exactly
    /// this shard count — a reopen under a different count rebuilds every
    /// index (the header records the topology), consistent with
    /// `verify_placement` flagging the store side.
    pub fn with_metadata_index_snapshots(
        stores: Vec<Arc<KvStore>>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::with_metadata_index_snapshots(backends(stores), dir)?
                .named("redis-sharded"),
        ))
    }

    /// The underlying store of one shard.
    pub fn store(&self, shard: usize) -> &Arc<KvStore> {
        self.shards()[shard].store().kv()
    }
}
