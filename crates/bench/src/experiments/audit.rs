//! Audit-trail cost: what an append pays, what a GET-SYSTEM-LOGS read
//! pays, and what a read costs the appenders it shares the trail with.
//!
//! The regulator workload reads a trail every other workload only appends
//! to, so the two sides are measured apart: `audit_append_ns` is one
//! `record` on the single-op path; `audit_read_full_us` is a whole-trail
//! `lines_between` (taking and dropping the window) at [`EVENTS`] events;
//! `audit_read_window_us` is the same for the newest 1 % by timestamp;
//! `audit_read_hold_us` is the whole-trail call alone, the window dropped
//! off the clock — `lines_between` holds the append lock for all but its
//! last step, so this bounds how long one read can stall an appender. Each is the best of several rounds; all four are
//! smaller-is-better.

use crate::report::ExperimentTable;
use gdpr_core::audit::AuditTrail;
use gdpr_core::Session;
use std::time::{Duration, Instant};

/// Trail length the read metrics are taken at: the e2e benchmark's
/// `regulator-sharded` pre-roll.
pub const EVENTS: usize = 70_000;

const APPEND_ROUNDS: usize = 5;
const READ_ROUNDS: usize = 10;

/// A trail of [`EVENTS`] events, one simulated millisecond per ten, so a
/// timestamp window can select a fraction of it.
fn build() -> AuditTrail {
    let sim = clock::sim();
    let trail = AuditTrail::new(sim.clone());
    let session = Session::customer("neo");
    for i in 0..EVENTS {
        if i % 10 == 0 {
            sim.advance(Duration::from_millis(1));
        }
        trail.record(
            &session,
            "read-data-by-key",
            format!("key=user{i:07}"),
            Ok(1),
        );
    }
    trail
}

/// The fastest of `rounds` runs of `body`, which returns the time it
/// wants counted.
fn best_of(rounds: usize, mut body: impl FnMut() -> Duration) -> Duration {
    (0..rounds).map(|_| body()).min().unwrap_or_default()
}

/// Run the suite; returns the table and `(metric, value)` pairs.
pub fn run() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let mut trail = build();
    let append = best_of(APPEND_ROUNDS, || {
        let started = Instant::now();
        let fresh = build();
        let elapsed = started.elapsed();
        trail = fresh; // the old trail is freed off the clock
        elapsed
    });

    let newest = (EVENTS / 10) as u64;
    let window_from = newest - newest / 100 + 1;
    assert_eq!(
        trail.lines_between(window_from, u64::MAX).len(),
        EVENTS / 100
    );
    let read = |from_ms: u64, time_drop: bool| {
        best_of(READ_ROUNDS, || {
            let started = Instant::now();
            let window = trail.lines_between(from_ms, u64::MAX);
            let held = started.elapsed();
            drop(window);
            if time_drop {
                started.elapsed()
            } else {
                held
            }
        })
    };
    let us = |d: Duration| d.as_secs_f64() * 1e6;

    let series = vec![
        (
            "audit_append_ns",
            append.as_secs_f64() * 1e9 / EVENTS as f64,
        ),
        ("audit_read_full_us", us(read(0, true))),
        ("audit_read_window_us", us(read(window_from, true))),
        ("audit_read_hold_us", us(read(0, false))),
    ];
    let mut table = ExperimentTable::new(
        format!("Audit trail at {EVENTS} events (smaller is better)"),
        &["metric", "value"],
    );
    for (metric, value) in &series {
        table.push_row(vec![metric.to_string(), format!("{value:.3}")]);
    }
    (table, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_suite_reports_all_four_metrics() {
        let (table, series) = run();
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
        assert!(table.render().contains("audit_read_hold_us"));
    }
}
