//! Per-operation counters — the role YCSB's `Measurements` module plays.
//! Latencies go to gdpr-core's [`HistogramSnapshot`], the same buckets
//! the engine's and the server's telemetry use.

use gdpr_core::telemetry::HistogramSnapshot;
use std::time::Duration;

/// Per-operation-class statistics.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    pub ok: u64,
    pub errors: u64,
    pub latency: HistogramSnapshot,
}

impl OpStats {
    pub fn record_ok(&mut self, latency: Duration) {
        self.ok += 1;
        self.latency.record(latency);
    }

    pub fn record_error(&mut self, latency: Duration) {
        self.errors += 1;
        self.latency.record(latency);
    }

    pub fn total(&self) -> u64 {
        self.ok + self.errors
    }

    pub fn merge(&mut self, other: &OpStats) {
        self.ok += other.ok;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opstats_accumulate() {
        let mut s = OpStats::default();
        s.record_ok(Duration::from_micros(5));
        s.record_error(Duration::from_micros(7));
        assert_eq!(s.total(), 2);
        let mut t = OpStats::default();
        t.record_ok(Duration::from_micros(9));
        s.merge(&t);
        assert_eq!(s.ok, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.latency.count, 3);
        assert_eq!(s.latency.mean_ns(), 7_000);
        assert_eq!(s.latency.max_ns, 9_000);
    }
}
