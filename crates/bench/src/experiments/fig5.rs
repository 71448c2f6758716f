//! Figure 5: GDPRbench workload completion times on the compliant stores.
//!
//! The paper loads 100 K personal records and runs 10 K operations for each
//! of the four workloads against compliant Redis (5a), compliant PostgreSQL
//! (5b), and PostgreSQL with metadata indices (5c). Expected shape: the
//! processor workload is fastest (key-heavy), the controller slowest;
//! PostgreSQL beats Redis by about an order of magnitude; metadata indices
//! improve every workload further.

use crate::report::{fmt_duration, ExperimentTable};
use connectors::registry::{self, ScratchDir};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use workload::gdpr::{load_corpus, stable_corpus, GdprWorkloadKind};
use workload::run_gdpr_workload;

/// Completion times per workload for one connector.
pub type Series = HashMap<&'static str, Duration>;

/// Run the four workloads against one connector variant.
pub fn run_one(db: &str, records: usize, ops: u64, threads: usize) -> (ExperimentTable, Series) {
    let mut series = Series::new();
    let mut table = ExperimentTable::new(
        format!(
            "Figure 5 — GDPRbench completion time ({db}, {records} records, {ops} ops/workload)"
        ),
        &["workload", "completion", "ops/s", "errors"],
    );
    for kind in GdprWorkloadKind::ALL {
        // Fresh store per workload, as the paper does per run.
        let scratch = ScratchDir::new("fig5");
        let handle = registry::build(db, &super::compliant_in(&scratch)).expect("open");
        let corpus = stable_corpus(records);
        load_corpus(handle.as_ref(), &corpus).expect("load corpus");
        let report = run_gdpr_workload(Arc::clone(&handle), kind, corpus, ops, threads, false);
        table.push_row(vec![
            kind.name().to_string(),
            fmt_duration(report.completion),
            crate::report::fmt_ops(report.throughput_ops_per_sec()),
            report.errors.to_string(),
        ]);
        series.insert(kind.name(), report.completion);
    }
    (table, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline Figure 5 shape at toy scale: per-op, the processor
    /// workload (80% key lookups) is far cheaper than the controller
    /// workload (all metadata-conditioned scans) on Redis, and the
    /// metadata-indexed PostgreSQL beats compliant Redis on the
    /// controller-style workloads.
    #[test]
    fn processor_fastest_controller_slowest_on_redis() {
        let (_, series) = run_one("redis", 800, 160, 2);
        let controller = series["controller"];
        let processor = series["processor"];
        assert!(
            controller > processor,
            "controller {controller:?} should exceed processor {processor:?}"
        );
    }

    /// The metadata-index retrofit on the key-value store: the
    /// controller workload is almost entirely metadata-conditioned
    /// queries, so the indexed variant must beat the full-scan baseline.
    #[test]
    fn redis_mi_beats_scan_redis_on_controller_workload() {
        let (_, scan) = run_one("redis", 800, 160, 2);
        let (_, indexed) = run_one("redis-mi", 800, 160, 2);
        assert!(
            indexed["controller"] < scan["controller"],
            "redis-mi {:?} should beat redis {:?}",
            indexed["controller"],
            scan["controller"]
        );
    }

    #[test]
    fn postgres_mi_beats_redis_on_customer_workload() {
        let (_, redis) = run_one("redis", 800, 160, 2);
        let (_, pg_mi) = run_one("postgres-mi", 800, 160, 2);
        assert!(
            pg_mi["customer"] < redis["customer"],
            "postgres-mi {:?} should beat redis {:?}",
            pg_mi["customer"],
            redis["customer"]
        );
    }
}
