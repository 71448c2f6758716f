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
//! last step, so this bounds how long one read can stall an appender;
//! `audit_read_full_10x_us` is `audit_read_full_us` at ten times the
//! events, which a read whose cost grows with the trail cannot match.
//! Each is the best of several rounds; all five are smaller-is-better.

use crate::report::ExperimentTable;
use gdpr_core::audit::AuditTrail;
use gdpr_core::Session;
use std::time::{Duration, Instant};

/// Trail length the read metrics are taken at: the e2e benchmark's
/// `regulator-sharded` pre-roll.
pub const EVENTS: usize = 70_000;

const APPEND_ROUNDS: usize = 5;
const READ_ROUNDS: usize = 10;

/// A trail of `events` events, one simulated millisecond per ten, so a
/// timestamp window can select a fraction of it.
fn build(events: usize) -> AuditTrail {
    let sim = clock::sim();
    let trail = AuditTrail::new(sim.clone());
    let session = Session::customer("neo");
    for i in 0..events {
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

/// The best of [`READ_ROUNDS`] `lines_between(from_ms, ..)` calls on
/// `trail`, with or without dropping the window on the clock.
fn read(trail: &AuditTrail, from_ms: u64, time_drop: bool) -> Duration {
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
}

/// Run the suite; returns the table and `(metric, value)` pairs.
pub fn run() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let mut trail = build(EVENTS);
    let append = best_of(APPEND_ROUNDS, || {
        let started = Instant::now();
        let fresh = build(EVENTS);
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
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let full = us(read(&trail, 0, true));
    let window = us(read(&trail, window_from, true));
    let hold = us(read(&trail, 0, false));
    drop(trail);
    let full_10x = us(read(&build(10 * EVENTS), 0, true));

    let series = vec![
        (
            "audit_append_ns",
            append.as_secs_f64() * 1e9 / EVENTS as f64,
        ),
        ("audit_read_full_us", full),
        ("audit_read_window_us", window),
        ("audit_read_hold_us", hold),
        ("audit_read_full_10x_us", full_10x),
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
    fn audit_suite_reports_all_five_metrics() {
        let (table, series) = run();
        assert_eq!(series.len(), 5);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
        assert!(table.render().contains("audit_read_hold_us"));
        assert!(table.render().contains("audit_read_full_10x_us"));
    }
}
