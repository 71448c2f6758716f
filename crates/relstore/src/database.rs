//! The database front-end: statement execution over reader-writer-locked
//! tables, WAL logging, query logging, and the transit encryption boundary.
//!
//! Reads (SELECT/COUNT) take a shared lock on their table, so concurrent
//! readers proceed in parallel — the engine-level property that keeps the
//! paper's PostgreSQL degradation at ~2× where single-threaded Redis hits 5×.

use crate::config::{RelConfig, Storage};
use crate::error::{RelError, RelResult};
use crate::querylog::QueryLog;
use crate::schema::Schema;
use crate::statement::{Statement, StatementResult};
use crate::table::Table;
use clock::SharedClock;
use crypto::channel::{Direction, Loopback};
use crypto::log::{self, Log, MemBuffer};
use crypto::Volume;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    wal: Option<Mutex<Log>>,
    qlog: Option<QueryLog>,
    transit: Option<Mutex<Loopback>>,
    config: RelConfig,
    clock: SharedClock,
    stats: RelStats,
}

impl Database {
    /// Open a database against the wall clock.
    pub fn open(config: RelConfig) -> RelResult<Arc<Database>> {
        Self::open_with_clock(config, clock::wall())
    }

    /// Open against an explicit clock. The WAL must be new: relstore has
    /// no restart path ([`Self::recover`] rebuilds from bytes into a
    /// database that logs nothing), so a [`Storage::File`] that already
    /// holds frames is refused rather than appended to.
    pub fn open_with_clock(config: RelConfig, clk: SharedClock) -> RelResult<Arc<Database>> {
        let now = clk.now().as_nanos();
        let (wal, retained) = Log::open(&config.wal, config.fsync, Self::volume(&config), now)?;
        if !retained.is_empty() {
            return Err(RelError::Wal(format!(
                "{:?} already holds {} frames; recover from it or remove it",
                config.wal,
                retained.len()
            )));
        }
        let qlog = config.log_statements.then(|| QueryLog::new(clk.clone()));
        let transit = config
            .encrypt_transit
            .then(|| Mutex::new(Loopback::new(&config.cipher_seed)));
        Ok(Arc::new(Database {
            tables: RwLock::new(HashMap::new()),
            wal: wal.map(Mutex::new),
            qlog,
            transit,
            config,
            clock: clk,
            stats: RelStats::default(),
        }))
    }

    fn volume(config: &RelConfig) -> Option<Volume> {
        config
            .encrypt_at_rest
            .then(|| Volume::new(&config.cipher_seed))
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
        let transit_error = |e| RelError::Corrupt(format!("transit: {e}"));
        if let Some(transit) = &self.transit {
            transit
                .lock()
                .round_trip(Direction::Request, &stmt.encode())
                .map_err(transit_error)?;
        }

        let result = self.dispatch(stmt)?;

        if stmt.is_write() {
            if let Some(wal) = &self.wal {
                // The frame's sequence number is the statement's LSN.
                wal.lock()
                    .append(&stmt.encode(), self.clock.now().as_nanos())?;
            }
        }
        if let Some(qlog) = &self.qlog {
            if stmt.is_write() || self.config.log_reads {
                qlog.record(stmt, &result);
            }
        }

        if let Some(transit) = &self.transit {
            transit
                .lock()
                .round_trip(Direction::Reply, &result.encode())
                .map_err(transit_error)?;
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
        self.wal.as_ref().map_or(0, |w| w.lock().bytes())
    }

    /// Handle to the in-memory WAL buffer (memory-backed only).
    pub fn wal_memory_buffer(&self) -> Option<MemBuffer> {
        self.wal.as_ref().and_then(|w| w.lock().memory_buffer())
    }

    /// Rebuild a database from a WAL byte stream (crash recovery). A
    /// physically short final frame — a crash mid-append — is dropped
    /// (PostgreSQL's end-of-WAL rule); a complete frame that fails
    /// authentication or does not decode fails the recovery.
    pub fn recover(config: RelConfig, data: &[u8], clk: SharedClock) -> RelResult<Arc<Database>> {
        let (payloads, _torn) = log::read(data, Self::volume(&config).as_ref())?;
        let statements = payloads
            .iter()
            .map(|payload| Statement::decode(payload))
            .collect::<RelResult<Vec<_>>>()?;
        let db = Self::open_with_clock(
            RelConfig {
                wal: Storage::Disabled,
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
            wal: Storage::Memory,
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
        // A write's LSN is its frame's sequence number; reads leave no frame.
        let (frames, torn) = log::read(&raw, None).unwrap();
        assert_eq!((frames.len() as u64, torn), (db.mutation_generation(), 0));
        assert_eq!(db.wal_bytes(), raw.len() as u64);

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

    /// The on-disk bytes of an INSERT, an UPDATE and a DELETE — plain, and
    /// sealed under the seed `golden-seed` — captured from the commit
    /// before the WAL writer moved to `crypto::log`.
    const GOLDEN_PLAIN: &str = "1b0000000301000000740200000002070000000000000004030000006e656f\
        28000000060100000074010300000075737204030000006e656f010000000400000064617461040100000078\
        0700000007010000007400";
    const GOLDEN_SEALED: &str = "2b00000000000000000000002dc10f633d513afc45ff4a7e51713c00d5309845\
        209625db15d00cdee0f0ff1b00b910\
        3800000001000000000000001ba12d9a7405df21e711c8f3c58a8596e81e086ff309491d642cb65bf1298ad8\
        ede2f3b68390746ba845c98ea1a77e01\
        170000000200000000000000f4181f10dc4e5f21e50fc357188ad9";

    #[test]
    fn wal_golden_bytes() {
        let statements = [
            Statement::Insert {
                table: "t".into(),
                row: vec![Datum::Int(7), Datum::Text("neo".into())],
            },
            Statement::Update {
                table: "t".into(),
                pred: Predicate::eq_text("usr", "neo"),
                assignments: vec![("data".into(), Datum::Text("x".into()))],
            },
            Statement::Delete {
                table: "t".into(),
                pred: Predicate::True,
            },
        ];
        for (golden, seed) in [(GOLDEN_PLAIN, None), (GOLDEN_SEALED, Some(b"golden-seed"))] {
            let volume = || seed.map(|seed| Volume::new(seed));
            let (wal, _) = Log::open(&Storage::Memory, Default::default(), volume(), 0).unwrap();
            let mut wal = wal.unwrap();
            for stmt in &statements {
                wal.append(&stmt.encode(), 0).unwrap();
            }
            let raw = wal.memory_buffer().unwrap().lock().clone();
            let hex: String = raw.iter().map(|byte| format!("{byte:02x}")).collect();
            assert_eq!(hex, golden);
            let (payloads, torn) = log::read(&raw, volume().as_ref()).unwrap();
            assert_eq!(torn, 0);
            for (payload, stmt) in payloads.iter().zip(&statements) {
                assert_eq!(&Statement::decode(payload).unwrap(), stmt);
            }
        }
    }

    /// relstore has no restart path: opening over a WAL file that already
    /// holds frames is refused, naming the file and the frame count,
    /// instead of appending frame 0 after frame N.
    #[test]
    fn open_refuses_a_wal_file_that_holds_frames() {
        let dir = std::env::temp_dir().join(format!("relwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("held.wal");
        let _ = std::fs::remove_file(&path);
        let config = RelConfig {
            wal: Storage::File(path.clone()),
            ..Default::default()
        };
        let db = Database::open(config.clone()).unwrap();
        db.execute(&create_stmt()).unwrap();
        db.execute(&insert_stmt("k", "neo", 5)).unwrap();
        db.sync_wal().unwrap();
        let written = std::fs::read(&path).unwrap();
        match Database::open(config.clone()).err() {
            Some(RelError::Wal(msg)) => {
                assert!(
                    msg.contains("held.wal") && msg.contains("2 frames"),
                    "{msg}"
                )
            }
            other => panic!("expected a WAL error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), written, "nothing appended");
        let recovered = Database::recover(config, &written, clock::wall()).unwrap();
        assert_eq!(recovered.mutation_generation(), 2);
        std::fs::remove_file(&path).unwrap();
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
        assert_eq!(db.qlog.as_ref().unwrap().entries().len(), 2);

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
            db.qlog.as_ref().unwrap().entries().len(),
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
