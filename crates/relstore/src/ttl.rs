//! Time-based row expiry — the paper's PostgreSQL TTL retrofit (§5.2).
//!
//! PostgreSQL has no native row TTL, so the paper adds an expiry-timestamp
//! column to every personal-data table and runs a daemon that deletes
//! past-due rows once per second. [`TtlDaemon`] is that daemon: each sweep
//! issues a `DELETE ... WHERE expiry <= now` through the regular statement
//! pipeline (so it pays WAL, logging, and encryption costs like any other
//! client — exactly as an external cron'd `psql` would).

use crate::database::Database;
use crate::datum::Datum;
use crate::error::RelResult;
use crate::predicate::Predicate;
use crate::statement::Statement;
use clock::Clock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The longest step the sweeper's pause between sweeps takes before it
/// looks at the shutdown flag again, so [`TtlDaemon::stop`] waits at most
/// about this long, whatever the sweep interval.
pub const STOP_CHECK: Duration = Duration::from_millis(50);

/// Sleep `interval` on `clock` in steps of at most [`STOP_CHECK`], until it
/// has passed or `shutdown` is set. Uninterrupted, a simulated clock
/// advances by the whole interval, as one sleep of it would.
fn pause(clock: &dyn Clock, interval: Duration, shutdown: &AtomicBool) {
    let mut left = interval;
    while !left.is_zero() && !shutdown.load(Ordering::Relaxed) {
        let step = left.min(STOP_CHECK);
        clock.sleep(step);
        left -= step;
    }
}

/// A table/column pair swept for expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepTarget {
    pub table: String,
    pub expiry_column: String,
}

/// The TTL sweep daemon.
pub struct TtlDaemon {
    db: Arc<Database>,
    targets: Vec<SweepTarget>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Lifetime count of rows reaped.
    pub reaped: Arc<AtomicU64>,
}

impl TtlDaemon {
    pub fn new(db: Arc<Database>, targets: Vec<SweepTarget>) -> Self {
        TtlDaemon {
            db,
            targets,
            shutdown: Arc::new(AtomicBool::new(false)),
            handle: None,
            reaped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Run one sweep now: delete every row whose expiry column is at or
    /// before the database clock's current time. Returns rows deleted.
    /// NULL-expiry rows are never touched (NULL comparisons are unknown).
    pub fn sweep_once(&self) -> RelResult<usize> {
        let now_ms = self.db.clock().now().as_millis();
        let mut total = 0;
        for target in &self.targets {
            let stmt = Statement::Delete {
                table: target.table.clone(),
                pred: Predicate::Le(target.expiry_column.clone(), Datum::Timestamp(now_ms)),
            };
            let result = self.db.execute(&stmt)?;
            total += result.rows_affected();
        }
        self.reaped.fetch_add(total as u64, Ordering::Relaxed);
        Ok(total)
    }

    /// Start the background sweeper at the configured interval
    /// (`RelConfig::ttl_sweep_interval`, 1 s by default as in the paper).
    pub fn start(&mut self) {
        if self.handle.is_some() {
            return;
        }
        let db = Arc::clone(&self.db);
        let targets = self.targets.clone();
        let shutdown = Arc::clone(&self.shutdown);
        let reaped = Arc::clone(&self.reaped);
        let interval = db.config().ttl_sweep_interval;
        self.handle = Some(std::thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                let now_ms = db.clock().now().as_millis();
                for target in &targets {
                    let stmt = Statement::Delete {
                        table: target.table.clone(),
                        pred: Predicate::Le(target.expiry_column.clone(), Datum::Timestamp(now_ms)),
                    };
                    if let Ok(result) = db.execute(&stmt) {
                        reaped.fetch_add(result.rows_affected() as u64, Ordering::Relaxed);
                    }
                }
                pause(&**db.clock(), interval, &shutdown);
            }
        }));
    }

    /// Stop the background sweeper. It notices within one
    /// [`STOP_CHECK`] step of its pause, not a whole sweep interval later.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.shutdown.store(false, Ordering::Relaxed);
    }
}

impl Drop for TtlDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelConfig;
    use crate::schema::ColumnType;

    fn setup(clk: clock::SharedClock) -> Arc<Database> {
        let db = Database::open_with_clock(RelConfig::default(), clk).unwrap();
        db.execute(&Statement::CreateTable {
            table: "personal_data".into(),
            columns: vec![
                ("key".into(), ColumnType::Text),
                ("expiry".into(), ColumnType::Timestamp),
            ],
            pk: "key".into(),
        })
        .unwrap();
        db
    }

    fn insert(db: &Database, key: &str, expiry: Option<u64>) {
        db.execute(&Statement::Insert {
            table: "personal_data".into(),
            row: vec![
                Datum::Text(key.into()),
                expiry.map_or(Datum::Null, Datum::Timestamp),
            ],
        })
        .unwrap();
    }

    fn targets() -> Vec<SweepTarget> {
        vec![SweepTarget {
            table: "personal_data".into(),
            expiry_column: "expiry".into(),
        }]
    }

    #[test]
    fn sweep_deletes_only_past_due() {
        let sim = clock::sim();
        let db = setup(sim.clone());
        insert(&db, "due-now", Some(1_000));
        insert(&db, "due-later", Some(100_000));
        insert(&db, "immortal", None);
        sim.advance(Duration::from_secs(5));
        let daemon = TtlDaemon::new(Arc::clone(&db), targets());
        assert_eq!(daemon.sweep_once().unwrap(), 1);
        let t = db.table("personal_data").unwrap();
        assert_eq!(t.read().row_count(), 2);
        // Second sweep at same time reaps nothing further.
        assert_eq!(daemon.sweep_once().unwrap(), 0);
        // Advance past the second deadline.
        sim.advance(Duration::from_secs(100));
        assert_eq!(daemon.sweep_once().unwrap(), 1);
        assert_eq!(t.read().row_count(), 1);
        assert_eq!(daemon.reaped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn background_daemon_with_wall_clock() {
        let db = Database::open(RelConfig {
            ttl_sweep_interval: Duration::from_millis(20),
            ..Default::default()
        })
        .unwrap();
        db.execute(&Statement::CreateTable {
            table: "personal_data".into(),
            columns: vec![
                ("key".into(), ColumnType::Text),
                ("expiry".into(), ColumnType::Timestamp),
            ],
            pk: "key".into(),
        })
        .unwrap();
        let now = db.clock().now().as_millis();
        for i in 0..20 {
            db.execute(&Statement::Insert {
                table: "personal_data".into(),
                row: vec![
                    Datum::Text(format!("k{i}")),
                    Datum::Timestamp(now + 30), // due in 30ms
                ],
            })
            .unwrap();
        }
        let mut daemon = TtlDaemon::new(Arc::clone(&db), targets());
        daemon.start();
        let t = db.table("personal_data").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t.read().row_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.stop();
        assert_eq!(
            t.read().row_count(),
            0,
            "daemon should reap all expired rows"
        );
    }

    /// `stop` does not wait out the sweep interval: with the paper's 1 s
    /// interval it returns within 200 ms of being called mid-pause.
    #[test]
    fn stop_returns_within_one_pause_step() {
        let db = setup(clock::wall());
        assert_eq!(db.config().ttl_sweep_interval, Duration::from_secs(1));
        let mut daemon = TtlDaemon::new(Arc::clone(&db), targets());
        daemon.start();
        // Past the first sweep, into the pause.
        std::thread::sleep(Duration::from_millis(100));
        let asked = std::time::Instant::now();
        daemon.stop();
        let waited = asked.elapsed();
        assert!(waited < Duration::from_millis(200), "stop took {waited:?}");
    }

    /// Uninterrupted, the pause is the whole interval on a simulated clock.
    #[test]
    fn an_uninterrupted_pause_advances_a_sim_clock_by_the_interval() {
        let sim = clock::sim();
        let running = AtomicBool::new(false);
        pause(&*sim, Duration::from_millis(1_234), &running);
        assert_eq!(sim.now().as_millis(), 1_234);
        let stopped = AtomicBool::new(true);
        pause(&*sim, Duration::from_secs(1), &stopped);
        assert_eq!(sim.now().as_millis(), 1_234);
    }

    #[test]
    fn sweep_with_expiry_index_uses_index_scan() {
        let sim = clock::sim();
        let db = setup(sim.clone());
        db.execute(&Statement::CreateIndex {
            table: "personal_data".into(),
            index: "expiry_idx".into(),
            column: "expiry".into(),
            inverted: false,
        })
        .unwrap();
        for i in 0..100 {
            insert(&db, &format!("k{i}"), Some(i * 10));
        }
        sim.advance(Duration::from_millis(495));
        let daemon = TtlDaemon::new(Arc::clone(&db), targets());
        assert_eq!(daemon.sweep_once().unwrap(), 50);
        let t = db.table("personal_data").unwrap();
        assert!(t.read().plan_stats().index_scans >= 1);
    }
}
