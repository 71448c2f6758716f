//! An in-memory NoSQL key-value store in the mould of Redis v5.
//!
//! This crate is the "Redis" of the reproduction: the paper retrofits Redis
//! into GDPR compliance (§5.1) and attributes its benchmark behaviour to a
//! handful of design properties, all of which are implemented here faithfully:
//!
//! * **Single-threaded command execution.** Every command funnels through one
//!   lock ([`server::KvStore`]), so writes and reads serialize exactly as in
//!   Redis' event loop. This is what makes the GDPR security features so much
//!   more expensive here than in the relational store. The one exception is
//!   a `GET` / `MGET` with no side effect to serialize (nothing to reap, log
//!   or seal), which is answered under the lock's shared side — see
//!   [`server`].
//! * **No secondary indexes.** The keyspace is a hash table; any query that
//!   is not a key lookup must SCAN, which is how the paper's metadata-based
//!   GDPR queries end up O(n) (Figures 5a, 7b).
//! * **Lazy probabilistic expiration.** The stock expiration cycle samples 20
//!   random keys from the expire-set every 100 ms and only loops immediately
//!   when ≥5 were expired ([`expire`]). The GDPR retrofit switches this to a
//!   strict full sweep ([`expire::ExpirationMode::Strict`]) — Figure 3a.
//! * **Append-only-file persistence.** The AOF — a [`crypto::log`] whose
//!   frames hold RESP-encoded commands ([`aof`]) — logs mutating commands
//!   with a configurable fsync policy; the GDPR retrofit additionally logs
//!   reads and scans to produce an audit trail (Figure 4a's `Log` bar) and
//!   can seal every frame with the at-rest cipher (`Encrypt` bar). Opening a
//!   store on a file that already holds a log replays and resumes it.
//!
//! ## The command set is the traffic
//!
//! The paper's Redis client stub (§4.3) issues a fixed handful of commands,
//! and so do this repo's callers. [`Command`] has exactly the variants some
//! non-test caller builds; a log holding anything else fails replay with
//! `KvError::Syntax("unknown command …")` rather than skipping the frame.
//!
//! | command | who issues it |
//! |---|---|
//! | `SET` | [`KvStore::set`] / [`KvStore::set_ex`]: the Redis connector's put / rewrite, YCSB insert and update |
//! | `GET` | [`KvStore::get`]: the connector's fetch, YCSB read |
//! | `MGET` | the connector's `fetch_many` and scan, one per chunk of keys |
//! | `DEL` | [`KvStore::del`]: the connector's delete |
//! | `EXISTS` | [`KvStore::exists`]: the connector's create-collision probe |
//! | `EXPIRE` | [`KvStore::expire`]: the Figure 4 TTL experiment (`bench`) |
//! | `EXPIREAT` | the connector re-arming an exact deadline after a rewrite or shard migration; the AOF form of every relative expiry |
//! | `SCAN` | the connector's keyspace walk (every non-indexed metadata query, `expired_keys`); `benches/kv_ops.rs` |
//! | `ZADD` | YCSB's key index (`workload::ycsb`), fed on insert |
//! | `ZRANGEBYSCORE` | YCSB workload E's range scan over that index |
//!
//! ```
//! use kvstore::{KvConfig, KvStore};
//!
//! let store = KvStore::open(KvConfig::default()).unwrap();
//! store.set(b"ph-1x4b", b"123-456-7890").unwrap();
//! assert_eq!(store.get(b"ph-1x4b").unwrap().unwrap().as_ref(), b"123-456-7890");
//! ```

pub mod aof;
pub mod commands;
pub mod config;
pub mod db;
pub mod error;
pub mod expire;
pub mod glob;
pub mod resp;
pub mod rng;
pub mod sampleset;
pub mod server;
pub mod skiplist;
pub mod value;

pub use bytes::Bytes;
pub use commands::{Command, Reply};
pub use config::{FsyncPolicy, KvConfig};
pub use error::KvError;
pub use expire::ExpirationMode;
pub use server::KvStore;
pub use value::Value;
