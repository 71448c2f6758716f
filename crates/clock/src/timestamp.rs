use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on a [`Clock`](crate::Clock), in nanoseconds since that clock's
/// epoch.
///
/// Timestamps are plain numbers: they are `Copy`, totally ordered, and support
/// `+ Duration` / `- Timestamp`. Subtracting a later timestamp from an earlier
/// one saturates to zero rather than panicking, because expiry math routinely
/// asks "how long past due is this key" about keys that are not yet due.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (a [`SimClock`](crate::SimClock)'s epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Construct from seconds since the epoch, saturating at the last
    /// representable instant (about 584 years).
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs.saturating_mul(1_000_000_000))
    }

    /// Construct from milliseconds since the epoch, saturating like
    /// [`Self::from_secs`].
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis.saturating_mul(1_000_000))
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// `self - earlier`, saturating to zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }
}

/// `d` in nanoseconds, saturating at `u64::MAX`: a `Duration` can be far
/// longer than any `Timestamp` offset, and a wrapped one would be short.
fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The deadline, in milliseconds since the epoch, of a TTL of `ttl` armed
/// at `now_ms`: `now_ms + ttl`, saturating at the last instant a
/// [`Timestamp`] can hold, so every layer that stores a deadline in
/// milliseconds agrees with a store that computes `now + ttl` on
/// `Timestamp`s — however long the TTL a client sent.
pub fn deadline_ms(now_ms: u64, ttl: Duration) -> u64 {
    (Timestamp::from_millis(now_ms) + ttl).as_millis()
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(saturating_nanos(d)))
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, earlier: Timestamp) -> Duration {
        self.saturating_since(earlier)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(saturating_nanos(d)))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:?}", Duration::from_nanos(self.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_roundtrip() {
        let t = Timestamp::from_secs(10);
        let later = t + Duration::from_millis(1500);
        assert_eq!(later.as_millis(), 11_500);
        assert_eq!(later - t, Duration::from_millis(1500));
    }

    #[test]
    fn sub_saturates_to_zero() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(early - late, Duration::ZERO);
        assert_eq!(early - Duration::from_secs(5), Timestamp::ZERO);
    }

    #[test]
    fn ordering_matches_nanos() {
        assert!(Timestamp::from_millis(999) < Timestamp::from_secs(1));
        assert_eq!(Timestamp::from_millis(1000), Timestamp::from_secs(1));
    }

    #[test]
    fn unit_conversions() {
        let t = Timestamp::from_nanos(2_500_000_000);
        assert_eq!(t.as_secs(), 2);
        assert_eq!(t.as_millis(), 2500);
        assert_eq!(t.as_nanos(), 2_500_000_000);
    }

    /// A duration of 2⁶⁴ ns or more, or a product past `u64::MAX`,
    /// saturates at the last instant instead of wrapping to a near one.
    #[test]
    fn arithmetic_saturates_instead_of_wrapping() {
        let huge = Duration::from_nanos(u64::MAX) + Duration::from_secs(2);
        let last = Timestamp::from_nanos(u64::MAX);
        assert_eq!(Timestamp::from_secs(1) + huge, last);
        assert_eq!(last - huge, Timestamp::ZERO);
        assert_eq!(Timestamp::from_secs(u64::MAX), last);
        assert_eq!(Timestamp::from_millis(u64::MAX), last);
        assert_eq!(deadline_ms(1_000, huge), last.as_millis());
        assert_eq!(deadline_ms(1_000, Duration::from_millis(2_500)), 3_500);
        assert_eq!(
            deadline_ms(1_000, Duration::from_nanos(2_999_999)),
            1_002,
            "whole milliseconds, as `now_ms + ttl.as_millis()`"
        );
    }

    #[test]
    fn max_picks_later() {
        let a = Timestamp::from_secs(1);
        let b = Timestamp::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
