//! The PostgreSQL-shaped GDPR backend (§5.2 of the paper).
//!
//! One `personal_data` table holds everything: the key, the data payload,
//! and one column per metadata attribute (`text[]` for the multi-valued
//! ones). TTL is materialized twice, as the paper's retrofit does: the
//! declared duration (`ttl_secs`, reported back to customers per G13.2a)
//! and the absolute `expiry` timestamp the 1-second sweep daemon deletes by.
//!
//! All GDPR policy (authorization, visibility, audit, dispatch) lives in
//! [`gdpr_core::ComplianceEngine`]; this module is storage mechanism only.
//! Unlike the key-value backend it implements the engine's *predicate
//! pushdown* hooks ([`gdpr_core::RecordStore::select`] /
//! [`gdpr_core::RecordStore::delete_matching`]), translating each
//! [`RecordPredicate`] into a native relstore [`Predicate`] so the two
//! paper configurations fall out of the schema alone:
//!
//! * **baseline** — only the primary key is indexed; every metadata query
//!   is a sequential scan (Figure 5b),
//! * **metadata-index** — a secondary index on every metadata column
//!   (inverted for the array ones), turning those scans into probes
//!   (Figure 5c) at the Table 3 space cost (3.5× → 5.95×).

use crate::Connector;
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::engine::ComplianceEngine;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::{Metadata, PersonalRecord};
use gdpr_core::store::{RecordPredicate, RecordStore};
use relstore::ttl::{SweepTarget, TtlDaemon};
use relstore::{ColumnType, Database, Datum, Predicate, RelConfig, Statement, StatementResult};
use std::sync::Arc;
use std::time::Duration;

/// The personal-data table name.
pub const TABLE: &str = "personal_data";

/// [`RecordStore`] over [`relstore::Database`]: the `personal_data` table
/// with full predicate pushdown.
pub struct PostgresStore {
    db: Arc<Database>,
    metadata_indices: bool,
    variant_name: &'static str,
}

impl PostgresStore {
    fn exec(&self, stmt: &Statement) -> GdprResult<StatementResult> {
        self.db
            .execute(stmt)
            .map_err(|e| GdprError::Store(e.to_string()))
    }

    fn now_ms(&self) -> u64 {
        self.db.clock().now().as_millis()
    }

    /// Create the `personal_data` table. Idempotent: an existing table
    /// (the WAL-recovery reopen path, where DDL replayed already) is fine.
    fn create_table(&self) -> GdprResult<()> {
        match self.db.execute(&Statement::CreateTable {
            table: TABLE.into(),
            columns: vec![
                ("key".into(), ColumnType::Text),
                ("data".into(), ColumnType::Text),
                ("pur".into(), ColumnType::TextArray),
                ("ttl_secs".into(), ColumnType::Int),
                ("expiry".into(), ColumnType::Timestamp),
                ("usr".into(), ColumnType::Text),
                ("obj".into(), ColumnType::TextArray),
                ("dec".into(), ColumnType::TextArray),
                ("shr".into(), ColumnType::TextArray),
                ("src".into(), ColumnType::Text),
            ],
            pk: "key".into(),
        }) {
            Ok(_) | Err(relstore::RelError::TableExists(_)) => Ok(()),
            Err(e) => Err(GdprError::Store(e.to_string())),
        }
    }

    /// Create the metadata secondary indices. Idempotent, as
    /// [`Self::create_table`].
    fn create_metadata_indices(&self) -> GdprResult<()> {
        let specs: [(&str, &str, bool); 7] = [
            ("usr_idx", "usr", false),
            ("expiry_idx", "expiry", false),
            ("src_idx", "src", false),
            ("pur_idx", "pur", true),
            ("obj_idx", "obj", true),
            ("dec_idx", "dec", true),
            ("shr_idx", "shr", true),
        ];
        for (index, column, inverted) in specs {
            match self.db.execute(&Statement::CreateIndex {
                table: TABLE.into(),
                index: index.into(),
                column: column.into(),
                inverted,
            }) {
                Ok(_) | Err(relstore::RelError::IndexExists(_)) => {}
                Err(e) => return Err(GdprError::Store(e.to_string())),
            }
        }
        Ok(())
    }

    fn to_row(&self, record: &PersonalRecord) -> Vec<Datum> {
        let m = &record.metadata;
        let (ttl_secs, expiry) = match m.ttl {
            Some(ttl) => (
                Datum::Int(ttl.as_secs() as i64),
                Datum::Timestamp(self.now_ms() + ttl.as_millis() as u64),
            ),
            None => (Datum::Null, Datum::Null),
        };
        vec![
            Datum::Text(record.key.clone()),
            Datum::Text(record.data.clone()),
            Datum::TextArray(m.purposes.clone()),
            ttl_secs,
            expiry,
            Datum::Text(m.user.clone()),
            Datum::TextArray(m.objections.clone()),
            Datum::TextArray(m.decisions.clone()),
            Datum::TextArray(m.sharing.clone()),
            Datum::Text(m.source.clone()),
        ]
    }

    fn from_row(row: &[Datum]) -> GdprResult<PersonalRecord> {
        let text = |i: usize| -> String {
            row.get(i)
                .and_then(Datum::as_text)
                .unwrap_or_default()
                .to_string()
        };
        let array = |i: usize| -> Vec<String> {
            row.get(i)
                .and_then(Datum::as_text_array)
                .map(<[String]>::to_vec)
                .unwrap_or_default()
        };
        let ttl = row
            .get(3)
            .and_then(Datum::as_int)
            .map(|secs| Duration::from_secs(secs.max(0) as u64));
        Ok(PersonalRecord {
            key: text(0),
            data: text(1),
            metadata: Metadata {
                purposes: array(2),
                ttl,
                user: text(5),
                objections: array(6),
                decisions: array(7),
                sharing: array(8),
                source: text(9),
            },
        })
    }

    fn select_records(&self, pred: Predicate) -> GdprResult<Vec<PersonalRecord>> {
        let result = self.exec(&Statement::Select {
            table: TABLE.into(),
            pred,
        })?;
        result.rows().iter().map(|r| Self::from_row(r)).collect()
    }

    fn delete_where(&self, pred: Predicate) -> GdprResult<usize> {
        let result = self.exec(&Statement::Delete {
            table: TABLE.into(),
            pred,
        })?;
        Ok(result.rows_affected())
    }

    /// Translate an engine predicate into a native relational one — this is
    /// the pushdown boundary: everything below it runs on relstore's
    /// planner and (in the `-mi` variant) its secondary indexes.
    fn translate(pred: &RecordPredicate) -> Predicate {
        match pred {
            RecordPredicate::User(u) => Predicate::eq_text("usr", u),
            RecordPredicate::DeclaredPurpose(p) => Predicate::contains("pur", p),
            RecordPredicate::AllowsPurpose(p) => Predicate::And(vec![
                Predicate::contains("pur", p),
                Predicate::Not(Box::new(Predicate::contains("obj", p))),
            ]),
            RecordPredicate::NotObjecting(usage) => {
                Predicate::Not(Box::new(Predicate::contains("obj", usage)))
            }
            RecordPredicate::DecisionEligible => {
                Predicate::Not(Box::new(Predicate::contains("dec", Metadata::DEC_OPT_OUT)))
            }
            RecordPredicate::SharedWith(party) => Predicate::contains("shr", party),
        }
    }
}

impl RecordStore for PostgresStore {
    fn clock(&self) -> clock::SharedClock {
        self.db.clock().clone()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        let mut records = self.select_records(Predicate::eq_text("key", key))?;
        Ok(records.pop())
    }

    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let row = self.to_row(record);
        match self.db.execute(&Statement::Insert {
            table: TABLE.into(),
            row,
        }) {
            Ok(_) => Ok(()),
            Err(relstore::RelError::UniqueViolation { .. }) => {
                Err(GdprError::AlreadyExists(record.key.clone()))
            }
            Err(e) => Err(GdprError::Store(e.to_string())),
        }
    }

    /// Write back one record's metadata/data columns (expiry untouched
    /// unless `ttl_changed`).
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let m = &record.metadata;
        let mut assignments = vec![
            ("data".to_string(), Datum::Text(record.data.clone())),
            ("pur".to_string(), Datum::TextArray(m.purposes.clone())),
            ("usr".to_string(), Datum::Text(m.user.clone())),
            ("obj".to_string(), Datum::TextArray(m.objections.clone())),
            ("dec".to_string(), Datum::TextArray(m.decisions.clone())),
            ("shr".to_string(), Datum::TextArray(m.sharing.clone())),
            ("src".to_string(), Datum::Text(m.source.clone())),
        ];
        if ttl_changed {
            match m.ttl {
                Some(ttl) => {
                    assignments.push(("ttl_secs".into(), Datum::Int(ttl.as_secs() as i64)));
                    assignments.push((
                        "expiry".into(),
                        Datum::Timestamp(self.now_ms() + ttl.as_millis() as u64),
                    ));
                }
                None => {
                    assignments.push(("ttl_secs".into(), Datum::Null));
                    assignments.push(("expiry".into(), Datum::Null));
                }
            }
        }
        self.exec(&Statement::Update {
            table: TABLE.into(),
            pred: Predicate::eq_text("key", &record.key),
            assignments,
        })
        .map(|_| ())
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        Ok(self.delete_where(Predicate::eq_text("key", key))? > 0)
    }

    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        self.select_records(Predicate::True)
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        self.delete_where(Predicate::Le(
            "expiry".into(),
            Datum::Timestamp(self.now_ms()),
        ))
    }

    /// The database's WAL statement position — advanced by every write
    /// and reproduced exactly by WAL recovery, so an engine-side index
    /// snapshot stamped with it is trustworthy after a crash.
    fn persistence_generation(&self) -> Option<u64> {
        Some(self.db.mutation_generation())
    }

    /// Graceful-shutdown flush: sync the WAL.
    fn flush(&self) -> GdprResult<()> {
        self.db
            .sync_wal()
            .map_err(|e| GdprError::Store(e.to_string()))
    }

    fn select(&self, pred: &RecordPredicate) -> Option<GdprResult<Vec<PersonalRecord>>> {
        Some(self.select_records(Self::translate(pred)))
    }

    fn delete_matching(&self, pred: &RecordPredicate) -> Option<GdprResult<usize>> {
        Some(self.delete_where(Self::translate(pred)))
    }

    fn space_report(&self) -> SpaceReport {
        let personal = self
            .scan()
            .map(|records| records.iter().map(PersonalRecord::data_bytes).sum())
            .unwrap_or(0);
        // Total = heap + indices + WAL; the engine-side audit trail is
        // client state, not database size.
        SpaceReport {
            personal_data_bytes: personal,
            total_bytes: self.db.total_size_bytes() + self.db.wal_bytes() as usize,
        }
    }

    fn record_count(&self) -> usize {
        self.db
            .table(TABLE)
            .map(|t| t.read().row_count())
            .unwrap_or(0)
    }

    fn features(&self) -> FeatureReport {
        let config = self.db.config();
        FeatureReport {
            // No native row TTL; the sweep daemon retrofits it (§5.2).
            timely_deletion: FeatureSupport::Retrofitted,
            monitoring_and_logging: if config.log_statements && config.log_reads {
                FeatureSupport::Native // csvlog + row-level response logging
            } else {
                FeatureSupport::Unsupported
            },
            metadata_indexing: if self.metadata_indices {
                FeatureSupport::Native // built-in secondary indices
            } else {
                // Metadata queries still work (sequential scans), so the
                // capability is present even when no index backs it.
                FeatureSupport::Retrofitted
            },
            encryption: if config.encrypt_at_rest && config.encrypt_transit {
                FeatureSupport::Retrofitted // LUKS + SSL
            } else {
                FeatureSupport::Unsupported
            },
            access_control: FeatureSupport::Retrofitted, // engine-enforced
        }
    }

    fn name(&self) -> &str {
        self.variant_name
    }
}

/// GDPR connector over [`relstore::Database`]: the shared engine driving a
/// [`PostgresStore`] backend.
pub type PostgresConnector = Connector<ComplianceEngine<PostgresStore>>;

impl PostgresConnector {
    /// Create the connector and its `personal_data` table over an open
    /// database (baseline: primary-key index only).
    pub fn new(db: Arc<Database>) -> GdprResult<Self> {
        let backend = PostgresStore {
            db,
            metadata_indices: false,
            variant_name: "postgres",
        };
        backend.create_table()?;
        Ok(Connector::over(ComplianceEngine::new(backend)))
    }

    /// As [`Self::new`], then add a secondary index on every metadata
    /// column — the paper's metadata-index configuration.
    pub fn with_metadata_indices(db: Arc<Database>) -> GdprResult<Self> {
        let backend = PostgresStore {
            db,
            metadata_indices: true,
            variant_name: "postgres-mi",
        };
        backend.create_table()?;
        backend.create_metadata_indices()?;
        Ok(Connector::over(ComplianceEngine::new(backend)))
    }

    /// As [`Self::new`], but the *engine* additionally maintains a
    /// snapshot-persistable [`gdpr_core::MetadataIndex`] over the table,
    /// recovered from the image at `path` (variant `postgres-emi`).
    /// Predicate reads still push down to the store's planner — the
    /// engine index earns its keep on the TTL purge path, whose
    /// deadline-ordered due set (with absolute deadlines) survives
    /// restarts in O(index) instead of a table rescan; it also exercises
    /// the generic snapshot machinery over the WAL-backed backend (the
    /// recovery suite's relational leg).
    pub fn with_engine_index_snapshot(
        db: Arc<Database>,
        path: impl Into<std::path::PathBuf>,
    ) -> GdprResult<Self> {
        let backend = PostgresStore {
            db,
            metadata_indices: false,
            variant_name: "postgres-emi",
        };
        backend.create_table()?;
        let engine = ComplianceEngine::with_metadata_index_snapshot(backend, path)?;
        Ok(Connector::over(engine))
    }

    /// Open a fully compliant in-memory database and wrap it (baseline
    /// indexing).
    pub fn open_compliant() -> GdprResult<Self> {
        let db = Database::open(RelConfig::gdpr_compliant_in_memory())
            .map_err(|e| GdprError::Store(e.to_string()))?;
        Self::new(db)
    }

    /// The underlying database (for harnesses and daemons).
    pub fn database(&self) -> &Arc<Database> {
        &self.engine().store().db
    }

    /// A TTL sweep daemon targeting the personal-data table (§5.2's
    /// 1-second expiry daemon). Call `start()` on the result, or
    /// `sweep_once()` from simulated-clock harnesses.
    pub fn ttl_daemon(&self) -> TtlDaemon {
        TtlDaemon::new(
            Arc::clone(self.database()),
            vec![SweepTarget {
                table: TABLE.to_string(),
                expiry_column: "expiry".to_string(),
            }],
        )
    }
}
