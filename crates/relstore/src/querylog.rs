//! The statement log — PostgreSQL's `csvlog`, plus the paper's row-level
//! response logging.
//!
//! Each executed statement produces one entry — timestamp, kind, rows
//! affected, statement text — kept in memory. With `log_reads` enabled in [`crate::RelConfig`], SELECT/COUNT statements are logged too —
//! that is the audit-trail behaviour GDPR Article 30 requires and the source
//! of the 30–40% "Log" overhead in Figure 4b.

use crate::statement::{Statement, StatementResult};
use clock::SharedClock;
use parking_lot::Mutex;

/// One query-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    pub timestamp_ms: u64,
    pub kind: String,
    pub rows: usize,
    pub statement: String,
}

/// The query logger. Internally synchronized; shared by reference.
pub struct QueryLog {
    entries: Mutex<Vec<LogEntry>>,
    clock: SharedClock,
}

impl QueryLog {
    pub fn new(clock: SharedClock) -> QueryLog {
        QueryLog {
            entries: Mutex::new(Vec::new()),
            clock,
        }
    }

    /// Record one executed statement.
    pub fn record(&self, stmt: &Statement, result: &StatementResult) {
        self.entries.lock().push(LogEntry {
            timestamp_ms: self.clock.now().as_millis(),
            kind: stmt.kind().to_string(),
            rows: result.rows_affected(),
            statement: stmt.to_string(),
        });
    }

    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<LogEntry> {
        self.entries.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::predicate::Predicate;

    fn select() -> Statement {
        Statement::Select {
            table: "t".into(),
            pred: Predicate::eq_text("usr", "neo"),
        }
    }

    #[test]
    fn memory_log_records_entries() {
        let sim = clock::sim();
        let log = QueryLog::new(sim.clone());
        log.record(&select(), &StatementResult::Rows(vec![vec![Datum::Null]]));
        sim.advance(std::time::Duration::from_millis(500));
        log.record(&select(), &StatementResult::Count(3));
        let all = log.entries();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].rows, all[0].timestamp_ms), (1, 0));
        assert_eq!((all[1].rows, all[1].timestamp_ms), (3, 500));
        assert!(all[0].statement.contains("usr = 'neo'"));
    }
}
