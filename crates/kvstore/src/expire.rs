//! Active key expiration — the subsystem behind Figure 3a of the paper.
//!
//! Stock Redis expires keys with a **lazy probabilistic** cycle
//! (`activeExpireCycle` in `expire.c`); the paper (§5.1) describes it as:
//!
//! > once every 100ms, it samples 20 random keys from the set of keys with
//! > expire flag set; if any of these twenty have expired, they are actively
//! > deleted; if less than 5 keys got deleted, then wait till the next
//! > iteration, else repeat the loop immediately.
//!
//! As the fraction of keys carrying expiries grows, the expected delay before
//! a given expired key is sampled grows with the database size — which is how
//! the paper measures a ~3 hour erasure lag at 128 K keys. Their compliant
//! Redis replaces this with a **strict** full walk of the expire-set, which
//! erases everything past due within one cycle.
//!
//! Both algorithms are implemented here over the same [`Db`] and driven by an
//! explicit [`ExpirationCycle::run_cycle`] so that the Figure 3a harness can
//! execute them against a simulated clock.

use crate::db::Db;
use crate::rng::XorShift64;
use std::time::Duration;

/// How often the expiration cycle runs (Redis: server.hz = 10 → every 100ms).
pub const CYCLE_PERIOD: Duration = Duration::from_millis(100);
/// Keys sampled per lazy iteration (`ACTIVE_EXPIRE_CYCLE_LOOKUPS_PER_LOOP`).
pub const SAMPLES_PER_ITERATION: usize = 20;
/// If at least this many of a sample expired, loop again immediately.
pub const REPEAT_THRESHOLD: usize = 5;
/// Upper bound on immediate repeats within one cycle, standing in for Redis'
/// 25%-of-CPU time limit so a cycle cannot spin unboundedly.
pub const MAX_ITERATIONS_PER_CYCLE: usize = 1000;

/// Which expiration algorithm the store runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpirationMode {
    /// Stock Redis: probabilistic sampling. Expired keys may linger for a
    /// long time (Figure 3a's rising curve).
    #[default]
    Lazy,
    /// The paper's GDPR retrofit: every cycle walks the full expire-set, so
    /// all past-due keys are erased within one cycle (sub-second).
    Strict,
}

/// Statistics from one expiration cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Keys actively deleted this cycle.
    pub reaped: usize,
    /// Sampling iterations executed (lazy mode only; 1 for strict).
    pub iterations: usize,
    /// Keys inspected.
    pub inspected: usize,
}

/// The active-expiration driver. In production it is pumped by a background
/// thread ([`crate::server::KvStore`] owns it); in simulation the harness
/// calls [`run_cycle`](Self::run_cycle) and advances the clock by
/// [`CYCLE_PERIOD`] itself.
pub struct ExpirationCycle {
    mode: ExpirationMode,
    rng: XorShift64,
    /// Lifetime totals, for INFO/stats.
    pub total_reaped: u64,
}

impl ExpirationCycle {
    pub fn new(mode: ExpirationMode) -> Self {
        ExpirationCycle {
            mode,
            rng: XorShift64::new(0xE4B1_D00D),
            total_reaped: 0,
        }
    }

    pub fn mode(&self) -> ExpirationMode {
        self.mode
    }

    /// Execute one expiration cycle against `db`.
    pub fn run_cycle(&mut self, db: &mut Db) -> CycleStats {
        let stats = match self.mode {
            ExpirationMode::Lazy => self.lazy_cycle(db),
            ExpirationMode::Strict => strict_cycle(db),
        };
        self.total_reaped += stats.reaped as u64;
        stats
    }

    fn lazy_cycle(&mut self, db: &mut Db) -> CycleStats {
        let mut stats = CycleStats::default();
        loop {
            stats.iterations += 1;
            if db.expire_set_len() == 0 {
                break;
            }
            let sample = db.sample_expire_keys(SAMPLES_PER_ITERATION, &mut self.rng);
            stats.inspected += sample.len();
            let mut reaped_this_round = 0;
            for key in sample {
                if db.evict_if_due(&key) {
                    reaped_this_round += 1;
                }
            }
            stats.reaped += reaped_this_round;
            if reaped_this_round < REPEAT_THRESHOLD || stats.iterations >= MAX_ITERATIONS_PER_CYCLE
            {
                break;
            }
        }
        stats
    }
}

/// One strict cycle: walk the entire expire-set and delete everything past
/// due. O(size of expire-set), which is the cost the paper's compliant Redis
/// accepts in exchange for timely deletion; only the due keys are copied
/// out of the walk.
fn strict_cycle(db: &mut Db) -> CycleStats {
    let mut stats = CycleStats {
        iterations: 1,
        inspected: db.expire_set_len(),
        reaped: 0,
    };
    for key in db.due_expire_keys(db.clock().now()) {
        if db.evict_if_due(&key) {
            stats.reaped += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use bytes::Bytes;
    use clock::Timestamp;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Populate `n` keys, `frac_expired` of which are already past due.
    fn populate(db: &mut Db, n: usize, frac_due: f64) -> usize {
        let due = (n as f64 * frac_due) as usize;
        for i in 0..n {
            let key = b(&format!("k{i:06}"));
            db.set(key.clone(), Value::Str(b("v")), None);
            let at = if i < due {
                Timestamp::from_secs(1) // will be past due after advancing
            } else {
                Timestamp::from_secs(1_000_000)
            };
            db.set_expiry(&key, at);
        }
        due
    }

    #[test]
    fn strict_mode_reaps_everything_in_one_cycle() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        let due = populate(&mut db, 10_000, 0.2);
        sim.advance(std::time::Duration::from_secs(2));
        let mut cycle = ExpirationCycle::new(ExpirationMode::Strict);
        let stats = cycle.run_cycle(&mut db);
        assert_eq!(stats.reaped, due);
        assert_eq!(db.len(), 10_000 - due);
        assert_eq!(db.expire_set_len(), 10_000 - due);
    }

    #[test]
    fn lazy_mode_leaves_stragglers() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        // 2% due out of 50k: a single lazy cycle samples 20 keys and will
        // almost surely stop after one iteration, leaving most stragglers.
        let due = populate(&mut db, 50_000, 0.02);
        sim.advance(std::time::Duration::from_secs(2));
        let mut cycle = ExpirationCycle::new(ExpirationMode::Lazy);
        let stats = cycle.run_cycle(&mut db);
        assert!(
            stats.reaped < due,
            "one lazy cycle should not reap all {due} due keys (reaped {})",
            stats.reaped
        );
    }

    #[test]
    fn lazy_mode_eventually_converges() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        let due = populate(&mut db, 2_000, 0.5);
        sim.advance(std::time::Duration::from_secs(2));
        let mut cycle = ExpirationCycle::new(ExpirationMode::Lazy);
        let mut cycles = 0;
        let mut reaped = 0;
        while reaped < due && cycles < 100_000 {
            reaped += cycle.run_cycle(&mut db).reaped;
            sim.advance(CYCLE_PERIOD);
            cycles += 1;
        }
        assert_eq!(reaped, due, "lazy expiration never converged");
        assert_eq!(db.len(), 1_000);
    }

    #[test]
    fn lazy_repeats_when_many_expired() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        // All keys due: first iteration reaps ~20, which is ≥ threshold, so
        // the cycle must loop and reap far more than one sample's worth.
        populate(&mut db, 5_000, 1.0);
        sim.advance(std::time::Duration::from_secs(2));
        let mut cycle = ExpirationCycle::new(ExpirationMode::Lazy);
        let stats = cycle.run_cycle(&mut db);
        assert!(
            stats.iterations > 1,
            "cycle should repeat under heavy expiry"
        );
        assert!(stats.reaped > SAMPLES_PER_ITERATION);
    }

    #[test]
    fn cycle_on_empty_db_is_quiet() {
        let sim = clock::sim();
        let mut db = Db::new(sim);
        for mode in [ExpirationMode::Lazy, ExpirationMode::Strict] {
            let mut cycle = ExpirationCycle::new(mode);
            let stats = cycle.run_cycle(&mut db);
            assert_eq!(stats.reaped, 0);
        }
    }

    #[test]
    fn nothing_reaped_before_due_time() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        populate(&mut db, 1_000, 1.0); // due at t=1s, clock still at 0
        let mut cycle = ExpirationCycle::new(ExpirationMode::Strict);
        assert_eq!(cycle.run_cycle(&mut db).reaped, 0);
        assert_eq!(db.len(), 1_000);
    }

    /// The strict cycle's boundary is inclusive: a key whose deadline is
    /// the current instant is reaped, one a nanosecond later is not.
    #[test]
    fn strict_cycle_reaps_a_deadline_equal_to_now() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        for (key, at) in [("now", 5_000_000_000), ("later", 5_000_000_001)] {
            db.set(b(key), Value::Str(b("v")), None);
            db.set_expiry(key.as_bytes(), Timestamp::from_nanos(at));
        }
        sim.advance(std::time::Duration::from_secs(5));
        let stats = ExpirationCycle::new(ExpirationMode::Strict).run_cycle(&mut db);
        assert_eq!(
            stats,
            CycleStats {
                reaped: 1,
                iterations: 1,
                inspected: 2,
            }
        );
        assert!(db.expiry_of(b"now").is_none());
        assert!(db.expiry_of(b"later").is_some());
    }

    #[test]
    fn total_reaped_accumulates() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        populate(&mut db, 100, 1.0);
        sim.advance(std::time::Duration::from_secs(2));
        let mut cycle = ExpirationCycle::new(ExpirationMode::Strict);
        cycle.run_cycle(&mut db);
        assert_eq!(cycle.total_reaped, 100);
    }
}
