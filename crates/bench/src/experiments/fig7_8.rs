//! Figures 7 and 8: the effect of database scale.
//!
//! Part (a): YCSB workload C — 10 K read operations against growing record
//! counts. Both stores stay essentially flat (hash/B-tree lookups are
//! O(1)/O(log n)).
//!
//! Part (b): the GDPRbench customer workload with a fixed operation count
//! against a growing volume of personal records. Redis (Figure 7b) degrades
//! linearly — its metadata queries scan the keyspace — while PostgreSQL
//! with metadata indices (Figure 8b) degrades only moderately.

use crate::report::{fmt_duration, ExperimentTable};
use connectors::registry::{self, ScratchDir};
use std::sync::Arc;
use std::time::Duration;
use workload::gdpr::{load_corpus, stable_corpus, GdprWorkloadKind};
use workload::ycsb::{ycsb_key, KvInterface, KvStoreYcsb, RelStoreYcsb, YcsbConfig};
use workload::{datagen, run_gdpr_workload, run_ycsb_workload};

/// Measured (record_count, completion) series.
pub type ScaleSeries = Vec<(usize, Duration)>;

/// Part (a): YCSB-C completion time at each scale.
pub fn run_part_a(
    db: &str,
    scales: &[usize],
    ops: u64,
    threads: usize,
) -> (ExperimentTable, ScaleSeries) {
    let fig = if db == "redis" { "7a" } else { "8a" };
    let mut table = ExperimentTable::new(
        format!("Figure {fig} — YCSB-C completion vs DB size ({db}, {ops} ops)"),
        &["records", "completion", "ops/s"],
    );
    let mut series = ScaleSeries::new();
    for &records in scales {
        let completion = match db {
            "redis" => {
                let store = kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open");
                let adapter = KvStoreYcsb::new(store);
                for i in 0..records as u64 {
                    adapter
                        .insert(&ycsb_key(i), &datagen::ycsb_value(i, 100))
                        .expect("load");
                }
                run_ycsb_workload(
                    Arc::new(adapter),
                    YcsbConfig::workload('C'),
                    records as u64,
                    ops,
                    threads,
                )
                .completion
            }
            _ => {
                let rel = relstore::Database::open(relstore::RelConfig::default()).expect("open");
                let adapter = RelStoreYcsb::new(rel).expect("usertable");
                for i in 0..records as u64 {
                    adapter
                        .insert(&ycsb_key(i), &datagen::ycsb_value(i, 100))
                        .expect("load");
                }
                run_ycsb_workload(
                    Arc::new(adapter),
                    YcsbConfig::workload('C'),
                    records as u64,
                    ops,
                    threads,
                )
                .completion
            }
        };
        table.push_row(vec![
            records.to_string(),
            fmt_duration(completion),
            crate::report::fmt_ops(ops as f64 / completion.as_secs_f64().max(1e-9)),
        ]);
        series.push((records, completion));
    }
    (table, series)
}

/// Part (b): GDPRbench customer workload completion at each personal-data
/// scale. `db` is `redis` (Fig 7b) or `postgres-mi` (Fig 8b).
pub fn run_part_b(
    db: &str,
    scales: &[usize],
    ops: u64,
    threads: usize,
) -> (ExperimentTable, ScaleSeries) {
    let fig = if db == "redis" { "7b" } else { "8b" };
    let mut table = ExperimentTable::new(
        format!(
            "Figure {fig} — GDPRbench customer workload vs personal-data volume ({db}, {ops} ops)"
        ),
        &["records", "completion", "ops/s"],
    );
    let mut series = ScaleSeries::new();
    for &records in scales {
        let scratch = ScratchDir::new("fig7b");
        let handle = registry::build(db, &super::compliant_in(&scratch)).expect("open");
        let corpus = stable_corpus(records);
        load_corpus(handle.as_ref(), &corpus).expect("load");
        let report = run_gdpr_workload(
            Arc::clone(&handle),
            GdprWorkloadKind::Customer,
            corpus,
            ops,
            threads,
            false,
        );
        table.push_row(vec![
            records.to_string(),
            fmt_duration(report.completion),
            crate::report::fmt_ops(report.throughput_ops_per_sec()),
        ]);
        series.push((records, report.completion));
    }
    (table, series)
}

/// Default scale ladders: geometric for part (a) (paper: 10 K → 10 M),
/// arithmetic for part (b) (paper: 100 K → 500 K), both capped by
/// `max_records`.
pub fn default_scales(max_records: usize, part: &str) -> Vec<usize> {
    if part == "a" {
        let mut out = Vec::new();
        let mut n = (max_records / 64).max(1000);
        while n <= max_records {
            out.push(n);
            n *= 4;
        }
        out
    } else {
        (1..=5).map(|i| (max_records / 5).max(200) * i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_a_is_flat_for_redis() {
        let _gate = crate::timing_gate();
        let (_, series) = run_part_a("redis", &[1000, 4000, 16_000], 3000, 2);
        let first = series.first().unwrap().1.as_secs_f64();
        let last = series.last().unwrap().1.as_secs_f64();
        // 16× the data should not change YCSB-C completion by more than ~3×
        // (generous bound for CI noise; the paper's curve is flat).
        assert!(
            last < first * 3.0 + 0.05,
            "YCSB-C should be ~flat with scale: {series:?}"
        );
    }

    #[test]
    fn part_b_grows_linearly_for_redis() {
        let _gate = crate::timing_gate();
        let (_, series) = run_part_b("redis", &[400, 800, 1600], 60, 2);
        let first = series.first().unwrap().1.as_secs_f64();
        let last = series.last().unwrap().1.as_secs_f64();
        assert!(
            last > first * 2.0,
            "customer workload should grow with personal-data volume: {series:?}"
        );
    }

    #[test]
    fn part_b_grows_slower_on_postgres_mi_than_redis() {
        let _gate = crate::timing_gate();
        let scales = [400, 1600];
        let (_, redis) = run_part_b("redis", &scales, 60, 2);
        let (_, pg) = run_part_b("postgres-mi", &scales, 60, 2);
        let redis_growth = redis[1].1.as_secs_f64() / redis[0].1.as_secs_f64().max(1e-9);
        let pg_growth = pg[1].1.as_secs_f64() / pg[0].1.as_secs_f64().max(1e-9);
        assert!(
            pg_growth < redis_growth,
            "metadata indices should mute the scale response: redis {redis_growth:.1}x vs pg {pg_growth:.1}x"
        );
    }

    #[test]
    fn scale_ladders() {
        assert_eq!(
            default_scales(64_000, "a"),
            vec![1000, 4000, 16_000, 64_000]
        );
        assert_eq!(default_scales(1000, "b"), vec![200, 400, 600, 800, 1000]);
    }
}
