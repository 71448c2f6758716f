//! An in-memory NoSQL key-value store in the mould of Redis v5.
//!
//! This crate is the "Redis" of the reproduction: the paper retrofits Redis
//! into GDPR compliance (§5.1) and attributes its benchmark behaviour to a
//! handful of design properties, all of which are implemented here faithfully:
//!
//! * **Single-threaded command execution.** Every command funnels through one
//!   lock ([`server::KvStore`]), so writes serialize exactly as in Redis'
//!   event loop. This is what makes the GDPR security features so much
//!   more expensive here than in the relational store. A key read is never
//!   a command: the readers [`KvStore::read_key`], [`KvStore::read_each`]
//!   and [`KvStore::read_prefix`] look keys up, or walk the keyspace's
//!   slots, under the lock's shared side in every configuration and lend
//!   their caller the stored values; the AOF and the transit session have
//!   locks of their own ([`server`]).
//! * **No secondary indexes.** The keyspace is a hash table; any query that
//!   is not a key lookup must walk the keyspace ([`KvStore::read_prefix`]),
//!   which is how the paper's metadata-based GDPR queries end up O(n)
//!   (Figures 5a, 7b). A key's TTL deadline lives in its slot ([`db`]), not
//!   in a second `expires` table as in Redis, so a lookup is one hash probe
//!   and one slot read even when every key carries a TTL, as every GDPR
//!   record does. Slots never move, so a walk over the slots sees every key
//!   present throughout exactly once.
//! * **Lazy probabilistic expiration.** The stock expiration cycle samples 20
//!   random keys from the expire-set every 100 ms and only loops immediately
//!   when ≥5 were expired ([`expire`]). The GDPR retrofit switches this to a
//!   strict full sweep ([`expire::ExpirationMode::Strict`]) — Figure 3a —
//!   which walks the expire-set in place and copies out only the due keys.
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
//! non-test caller builds or some log this store wrote holds; a log holding
//! anything else fails replay with `KvError::Syntax("unknown command …")`
//! rather than skipping the frame. `GET`, `MGET`, `EXISTS` and `SCAN` are
//! log forms that are never executed: they parse and encode, replay skips
//! them as it skips every read, and [`Command::execute`] refuses them with
//! `KvError::Syntax` naming the reader to use.
//!
//! | command | who issues it |
//! |---|---|
//! | `SET key value [NX] [PX ms \| EX s \| PXAT ms \| KEEPTTL]` | the Redis connector's every record write, one command each: put (`NX [PX ttl]`), rewrite (`KEEPTTL`, or `[PX ttl]` when the TTL changed), shard migration (`NX [PXAT at]`); [`KvStore::set`] / [`KvStore::set_ex`]: YCSB insert and update. An effective `SET` is logged as `SET key value [PXAT at]`, the deadline it left; an `NX` that found a live key logs nothing |
//! | `GET` | never executed: the log and seal form of [`KvStore::read_key`] / [`KvStore::get`] (the connector's point reads, YCSB read), which read on the shared side |
//! | `MGET` | never executed: the log and seal form of each chunk of [`KvStore::read_each`] (the connector's `fetch_many`: the chunk's keys) and of [`KvStore::read_prefix`] (the connector's walk and scan: the keys the chunk returned), which read on the shared side |
//! | `DEL` | [`KvStore::del`]: the connector's delete |
//! | `EXISTS` | never executed; it replays from `log_reads` logs written when it was the connector's create-collision probe |
//! | `EXPIRE` | [`KvStore::expire`]: the Figure 4 TTL experiment (`bench`) |
//! | `EXPIREAT` | `EXPIRE`'s AOF form; in older logs, also the deadline a TTL'd `SET` or a rewrite re-armed |
//! | `SCAN` | never executed; it replays from `log_reads` logs written when it was the connector's keyspace walk (`SCAN cursor COUNT n MATCH rec:*`; the pattern is kept as bytes, never matched) |
//! | `ZADD` | YCSB's key index (`workload::ycsb`), fed on insert; a [`value::ZSet`] is a `BTreeSet` of `(score, member)` beside a member → score map; NaN scores are refused |
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
pub mod resp;
pub mod rng;
pub mod sampleset;
pub mod server;
pub mod value;

pub use bytes::Bytes;
pub use commands::{Command, Reply, SetDeadline};
pub use config::{FsyncPolicy, KvConfig};
pub use error::KvError;
pub use expire::ExpirationMode;
pub use server::KvStore;
pub use value::Value;
