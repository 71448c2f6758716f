//! Time substrate for gdprbench-rs.
//!
//! The paper's time-dominated experiments (e.g. Figure 3a, where Redis takes
//! close to three hours to erase expired keys under its lazy expiration
//! algorithm) cannot be reproduced in wall-clock time inside a test suite.
//! This crate abstracts time behind the [`Clock`] trait so that production
//! code paths run against [`WallClock`] while experiment harnesses drive the
//! exact same code against a [`SimClock`] whose time is advanced manually.
//!
//! All timestamps are nanoseconds since an arbitrary epoch (process start for
//! [`WallClock`], zero for [`SimClock`]). Only differences between timestamps
//! produced by the *same* clock are meaningful.

mod sim;
mod timestamp;
mod wall;

pub use sim::SimClock;
pub use timestamp::{deadline_ms, Timestamp};
pub use wall::WallClock;

use std::sync::Arc;
use std::time::Duration;

/// A monotonic source of time.
///
/// Implementations must be cheap to call and safe to share across threads.
pub trait Clock: Send + Sync {
    /// The current instant on this clock.
    fn now(&self) -> Timestamp;

    /// Block the calling thread until at least `d` has elapsed on this clock.
    ///
    /// On [`WallClock`] this is a real sleep; on [`SimClock`] it advances the
    /// simulated time (the simulation treats the caller as the only actor
    /// driving time forward).
    fn sleep(&self, d: Duration);
}

/// A shareable, dynamically-dispatched clock handle.
///
/// Stores and daemons hold one of these so that the same binary can run
/// against real or simulated time.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructor for a shared wall clock.
pub fn wall() -> SharedClock {
    Arc::new(WallClock::new())
}

/// Convenience constructor for a shared simulated clock starting at time zero.
pub fn sim() -> Arc<SimClock> {
    Arc::new(SimClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_wall_clock_advances() {
        let c = wall();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "wall clock must advance: {a:?} -> {b:?}");
    }

    #[test]
    fn shared_clock_is_object_safe() {
        let c: SharedClock = sim();
        let a = c.now();
        c.sleep(Duration::from_secs(1));
        assert_eq!(c.now() - a, Duration::from_secs(1));
    }
}
