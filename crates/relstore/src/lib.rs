//! A relational storage engine in the mould of PostgreSQL.
//!
//! This crate is the "PostgreSQL" of the reproduction (§5.2 of the paper).
//! Its design mirrors the properties that drive the paper's PostgreSQL
//! results:
//!
//! * **Concurrent readers.** Tables are guarded by reader-writer locks, so
//!   read statements proceed in parallel — unlike the single-threaded
//!   [`kvstore`](../kvstore/index.html). The paper attributes PostgreSQL's
//!   milder GDPR slowdown partly to not serializing everything.
//! * **Ordered secondary indices** ([`index`]): a `BTreeMap` from key to
//!   posting list, including multi-value (array-typed) columns — the
//!   paper's "metadata indexing".
//!   Each additional index speeds metadata queries but taxes every write
//!   (Figure 3b: two secondary indices cost ~⅔ of pgbench throughput).
//! * **Write-ahead log**: a [`crypto::log`] (fsync policies, optional
//!   at-rest sealing — the LUKS stand-in — torn-tail rule) whose frames hold
//!   [`Statement::encode`]d write statements, replayable for crash recovery
//!   ([`Database::recover`]).
//! * **Statement log** ([`querylog`]) in the spirit of `csvlog` plus the
//!   paper's row-level-security response logging: with `log_reads` enabled,
//!   every SELECT is recorded too.
//! * **No native row TTL** — exactly PostgreSQL's situation. The paper adds
//!   an expiry-timestamp column and a 1-second sweep daemon; that daemon is
//!   [`ttl::TtlDaemon`].
//!
//! The public surface is a typed statement API ([`statement::Statement`])
//! rather than a SQL parser: the paper's client stubs issue a fixed set of
//! parameterized statements, so the reproduction models exactly that set.

pub mod config;
pub mod database;
pub mod datum;
pub mod error;
pub mod heap;
pub mod index;
pub mod predicate;
pub mod querylog;
pub mod schema;
pub mod statement;
pub mod table;
pub mod ttl;

pub use config::{RelConfig, Storage};
pub use database::Database;
pub use datum::Datum;
pub use error::RelError;
pub use predicate::Predicate;
pub use schema::{ColumnType, Schema};
pub use statement::{Statement, StatementResult};
