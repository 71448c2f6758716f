//! The database front-end: statement execution over reader-writer-locked
//! tables, WAL logging, query logging, and the transit encryption boundary.
//!
//! Reads (SELECT/COUNT) take a shared lock on their table, so concurrent
//! readers proceed in parallel — the engine-level property that keeps the
//! paper's PostgreSQL degradation at ~2× where single-threaded Redis hits 5×.

use crate::config::{RelConfig, WalStorage};
use crate::error::{RelError, RelResult};
use crate::querylog::{LogStorage, QueryLog};
use crate::schema::Schema;
use crate::statement::{Statement, StatementResult};
use crate::table::Table;
use crate::wal::{self, Wal};
use clock::SharedClock;
use crypto::channel::SecureChannel;
use crypto::Volume;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Transit {
    client: crypto::channel::DuplexChannel,
    server: crypto::channel::DuplexChannel,
}

/// Execution counters.
#[derive(Debug, Default)]
pub struct RelStats {
    pub statements: AtomicU64,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    /// The database's **persistence generation**: committed write
    /// statements (= the WAL position when a WAL is attached, counted
    /// whether or not one is). [`Database::recover`] reproduces the exact
    /// value the live database had when the log was written — see
    /// [`Database::mutation_generation`].
    pub mutations: AtomicU64,
}

/// The database.
pub struct Database {
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    wal: Option<Mutex<Wal>>,
    qlog: Option<Arc<QueryLog>>,
    transit: Option<Mutex<Transit>>,
    config: RelConfig,
    clock: SharedClock,
    stats: RelStats,
}

impl Database {
    /// Open a database against the wall clock.
    pub fn open(config: RelConfig) -> RelResult<Arc<Database>> {
        Self::open_with_clock(config, clock::wall())
    }

    /// Open against an explicit clock.
    pub fn open_with_clock(config: RelConfig, clk: SharedClock) -> RelResult<Arc<Database>> {
        let volume = config
            .encrypt_at_rest
            .then(|| Volume::new(&config.cipher_seed));
        let wal = Wal::open(&config.wal, config.fsync, volume, clk.clone())?.map(Mutex::new);
        let qlog = if config.log_statements {
            Some(QueryLog::open(&LogStorage::Memory, clk.clone())?)
        } else {
            None
        };
        let transit = config.encrypt_transit.then(|| {
            let (client, server) = SecureChannel::pair(&config.cipher_seed);
            Mutex::new(Transit { client, server })
        });
        Ok(Arc::new(Database {
            tables: RwLock::new(HashMap::new()),
            wal,
            qlog,
            transit,
            config,
            clock: clk,
            stats: RelStats::default(),
        }))
    }

    pub fn config(&self) -> &RelConfig {
        &self.config
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub fn stats(&self) -> &RelStats {
        &self.stats
    }

    /// The query log, if statement logging is enabled.
    pub fn query_log(&self) -> Option<&Arc<QueryLog>> {
        self.qlog.as_ref()
    }

    /// Handle to a table (for daemons and tests).
    pub fn table(&self, name: &str) -> RelResult<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// Approximate bytes across all tables (heap + indices): the Table 3
    /// numerator.
    pub fn total_size_bytes(&self) -> usize {
        self.tables
            .read()
            .values()
            .map(|t| t.read().size_bytes())
            .sum()
    }

    /// Execute one statement through the full pipeline.
    pub fn execute(&self, stmt: &Statement) -> RelResult<StatementResult> {
        // Transit boundary, request direction.
        if let Some(transit) = &self.transit {
            let wire = stmt.encode();
            let mut t = transit.lock();
            let sealed = t.client.seal(&wire);
            let opened = t
                .server
                .open(&sealed)
                .map_err(|e| RelError::Corrupt(format!("transit: {e}")))?;
            debug_assert_eq!(opened, wire);
        }

        let result = self.dispatch(stmt)?;

        if stmt.is_write() {
            if let Some(wal) = &self.wal {
                wal.lock().append(stmt)?;
            }
        }
        if let Some(qlog) = &self.qlog {
            if stmt.is_write() || self.config.log_reads {
                qlog.record(stmt, &result)?;
            }
        }

        // Transit boundary, response direction.
        if let Some(transit) = &self.transit {
            let wire = result.encode();
            let mut t = transit.lock();
            let sealed = t.server.seal(&wire);
            let opened = t
                .client
                .open(&sealed)
                .map_err(|e| RelError::Corrupt(format!("transit: {e}")))?;
            debug_assert_eq!(opened, wire);
        }

        self.stats.statements.fetch_add(1, Ordering::Relaxed);
        if stmt.is_write() {
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
            self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }

    fn dispatch(&self, stmt: &Statement) -> RelResult<StatementResult> {
        match stmt {
            Statement::CreateTable { table, columns, pk } => {
                let mut tables = self.tables.write();
                if tables.contains_key(table) {
                    return Err(RelError::TableExists(table.clone()));
                }
                let schema =
                    Schema::new(columns.iter().map(|(n, t)| (n.as_str(), *t)).collect(), pk)?;
                tables.insert(
                    table.clone(),
                    Arc::new(RwLock::new(Table::new(table.clone(), schema))),
                );
                Ok(StatementResult::Done)
            }
            Statement::CreateIndex {
                table,
                index,
                column,
                inverted,
            } => {
                let t = self.table(table)?;
                t.write().create_index(index, column, *inverted)?;
                Ok(StatementResult::Done)
            }
            Statement::DropIndex { table, index } => {
                let t = self.table(table)?;
                t.write().drop_index(index)?;
                Ok(StatementResult::Done)
            }
            Statement::Insert { table, row } => {
                let t = self.table(table)?;
                t.write().insert(row.clone())?;
                Ok(StatementResult::Inserted)
            }
            Statement::Select { table, pred } => {
                let t = self.table(table)?;
                // Shared lock: concurrent SELECTs proceed in parallel.
                let rows = t.read().select(pred)?;
                Ok(StatementResult::Rows(rows))
            }
            Statement::SelectRange {
                table,
                column,
                start,
                limit,
            } => {
                let t = self.table(table)?;
                let rows = t.read().select_range(column, start, *limit)?;
                Ok(StatementResult::Rows(rows))
            }
            Statement::Count { table, pred } => {
                let t = self.table(table)?;
                let n = t.read().count(pred)?;
                Ok(StatementResult::Count(n))
            }
            Statement::Update {
                table,
                pred,
                assignments,
            } => {
                let t = self.table(table)?;
                let n = t.write().update_where(pred, assignments)?;
                Ok(StatementResult::Updated(n))
            }
            Statement::Delete { table, pred } => {
                let t = self.table(table)?;
                let rows = t.write().delete_where(pred)?;
                Ok(StatementResult::Deleted(rows))
            }
        }
    }

    /// Force a WAL flush/fsync.
    pub fn sync_wal(&self) -> RelResult<()> {
        if let Some(wal) = &self.wal {
            wal.lock().sync()?;
        }
        Ok(())
    }

    /// Bytes appended to the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.lock().bytes)
    }

    /// Handle to the in-memory WAL buffer (memory-backed only).
    pub fn wal_memory_buffer(&self) -> Option<wal::MemBuffer> {
        self.wal.as_ref().and_then(|w| w.lock().memory_buffer())
    }

    /// Rebuild a database from a WAL byte stream (crash recovery).
    pub fn recover(config: RelConfig, data: &[u8], clk: SharedClock) -> RelResult<Arc<Database>> {
        let volume = config
            .encrypt_at_rest
            .then(|| Volume::new(&config.cipher_seed));
        let statements = wal::decode_stream(data, volume.as_ref())?;
        let db = Self::open_with_clock(
            RelConfig {
                wal: WalStorage::Disabled,
                encrypt_transit: false,
                log_statements: false,
                ..config
            },
            clk,
        )?;
        for stmt in &statements {
            if stmt.is_write() {
                db.dispatch(stmt)?;
                // Keep the persistence generation replay-stable: the
                // recovered database lands on the exact WAL position the
                // live one had when the log was written.
                db.stats.mutations.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(db)
    }

    /// The persistence generation: committed write statements, which a
    /// [`Self::recover`] of this database's WAL reproduces exactly. A
    /// write the WAL never captured (torn tail) recovers to a smaller
    /// value; a write behind any engine advances it — either way an
    /// engine-side index snapshot stamped with a different value is
    /// visibly stale.
    pub fn mutation_generation(&self) -> u64 {
        self.stats.mutations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::predicate::Predicate;
    use crate::schema::ColumnType;

    fn create_stmt() -> Statement {
        Statement::CreateTable {
            table: "personal_data".into(),
            columns: vec![
                ("key".into(), ColumnType::Text),
                ("data".into(), ColumnType::Text),
                ("usr".into(), ColumnType::Text),
                ("expiry".into(), ColumnType::Timestamp),
            ],
            pk: "key".into(),
        }
    }

    fn insert_stmt(key: &str, usr: &str, expiry: u64) -> Statement {
        Statement::Insert {
            table: "personal_data".into(),
            row: vec![
                Datum::Text(key.into()),
                Datum::Text(format!("data-{key}")),
                Datum::Text(usr.into()),
                Datum::Timestamp(expiry),
            ],
        }
    }

    #[test]
    fn create_insert_select() {
        let db = Database::open(RelConfig::default()).unwrap();
        db.execute(&create_stmt()).unwrap();
        for i in 0..10 {
            db.execute(&insert_stmt(&format!("k{i}"), "neo", 100))
                .unwrap();
        }
        let result = db
            .execute(&Statement::Select {
                table: "personal_data".into(),
                pred: Predicate::eq_text("usr", "neo"),
            })
            .unwrap();
        assert_eq!(result.rows().len(), 10);
        assert_eq!(db.stats().writes.load(Ordering::Relaxed), 11);
        assert_eq!(db.stats().reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::open(RelConfig::default()).unwrap();
        db.execute(&create_stmt()).unwrap();
        assert!(matches!(
            db.execute(&create_stmt()),
            Err(RelError::TableExists(_))
        ));
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::open(RelConfig::default()).unwrap();
        assert!(matches!(
            db.execute(&Statement::Select {
                table: "ghost".into(),
                pred: Predicate::True
            }),
            Err(RelError::NoSuchTable(_))
        ));
    }

    #[test]
    fn wal_recovery_rebuilds_state() {
        let config = RelConfig {
            wal: WalStorage::Memory,
            ..Default::default()
        };
        let db = Database::open(config.clone()).unwrap();
        db.execute(&create_stmt()).unwrap();
        for i in 0..20 {
            db.execute(&insert_stmt(&format!("k{i}"), &format!("u{}", i % 4), i))
                .unwrap();
        }
        db.execute(&Statement::Delete {
            table: "personal_data".into(),
            pred: Predicate::eq_text("usr", "u0"),
        })
        .unwrap();
        db.execute(&Statement::Update {
            table: "personal_data".into(),
            pred: Predicate::eq_text("usr", "u1"),
            assignments: vec![("data".into(), Datum::Text("redacted".into()))],
        })
        .unwrap();
        let raw = db.wal_memory_buffer().unwrap().lock().clone();

        let recovered = Database::recover(config, &raw, clock::wall()).unwrap();
        let t = recovered.table("personal_data").unwrap();
        assert_eq!(t.read().row_count(), 15);
        let redacted = recovered
            .execute(&Statement::Select {
                table: "personal_data".into(),
                pred: Predicate::eq_text("data", "redacted"),
            })
            .unwrap();
        assert_eq!(redacted.rows().len(), 5);
        // The persistence generation is replay-stable: CREATE TABLE + 20
        // inserts + delete + update = 23 writes on both sides (reads on
        // the recovered db above do not count).
        assert_eq!(db.mutation_generation(), 23);
        assert_eq!(recovered.mutation_generation(), 23);
    }

    #[test]
    fn encrypted_wal_recovery() {
        let config = RelConfig {
            wal: WalStorage::Memory,
            encrypt_at_rest: true,
            ..Default::default()
        };
        let db = Database::open(config.clone()).unwrap();
        db.execute(&create_stmt()).unwrap();
        db.execute(&insert_stmt("secret-key", "trinity", 0))
            .unwrap();
        let raw = db.wal_memory_buffer().unwrap().lock().clone();
        assert!(
            !raw.windows(7).any(|w| w == b"trinity"),
            "WAL must be sealed"
        );
        let recovered = Database::recover(config, &raw, clock::wall()).unwrap();
        assert_eq!(
            recovered.table("personal_data").unwrap().read().row_count(),
            1
        );
    }

    #[test]
    fn transit_encryption_preserves_semantics() {
        let config = RelConfig {
            encrypt_transit: true,
            ..Default::default()
        };
        let db = Database::open(config).unwrap();
        db.execute(&create_stmt()).unwrap();
        db.execute(&insert_stmt("k", "neo", 5)).unwrap();
        let rows = db
            .execute(&Statement::Select {
                table: "personal_data".into(),
                pred: Predicate::True,
            })
            .unwrap();
        assert_eq!(rows.rows().len(), 1);
    }

    #[test]
    fn query_log_records_per_config() {
        let config = RelConfig {
            log_statements: true,
            log_reads: false,
            ..Default::default()
        };
        let db = Database::open(config).unwrap();
        db.execute(&create_stmt()).unwrap();
        db.execute(&insert_stmt("k", "neo", 5)).unwrap();
        db.execute(&Statement::Count {
            table: "personal_data".into(),
            pred: Predicate::True,
        })
        .unwrap();
        // Two writes logged, the read not.
        assert_eq!(db.query_log().unwrap().len(), 2);

        let config = RelConfig {
            log_statements: true,
            log_reads: true,
            ..Default::default()
        };
        let db = Database::open(config).unwrap();
        db.execute(&create_stmt()).unwrap();
        db.execute(&Statement::Count {
            table: "personal_data".into(),
            pred: Predicate::True,
        })
        .unwrap();
        assert_eq!(
            db.query_log().unwrap().len(),
            2,
            "reads logged in GDPR mode"
        );
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = Database::open(RelConfig::default()).unwrap();
        db.execute(&create_stmt()).unwrap();
        for i in 0..100 {
            db.execute(&insert_stmt(&format!("seed{i}"), "u", 0))
                .unwrap();
        }
        let mut handles = vec![];
        for t in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    db.execute(&insert_stmt(&format!("t{t}-k{i}"), "w", 0))
                        .unwrap();
                    db.execute(&Statement::Count {
                        table: "personal_data".into(),
                        pred: Predicate::eq_text("usr", "w"),
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = db.table("personal_data").unwrap();
        assert_eq!(t.read().row_count(), 100 + 400);
    }

    #[test]
    fn size_accounting_via_database() {
        let db = Database::open(RelConfig::default()).unwrap();
        db.execute(&create_stmt()).unwrap();
        let empty = db.total_size_bytes();
        for i in 0..50 {
            db.execute(&insert_stmt(&format!("k{i}"), "neo", 1))
                .unwrap();
        }
        assert!(db.total_size_bytes() > empty);
    }
}
