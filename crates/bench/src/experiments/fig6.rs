//! Figure 6: representative throughput of YCSB versus GDPRbench on the same
//! compliant stores, identical hardware and configuration.
//!
//! The paper's log-scale bar chart shows both stores sustaining ~10 K ops/s
//! on YCSB while GDPR workloads run 2–4 orders of magnitude slower. Here
//! "representative" means: YCSB workload A throughput, versus the mean
//! GDPRbench throughput across the four entity workloads.

use super::fig4::{kv_store, rel_db};
use crate::report::{fmt_ops, ExperimentTable};
use connectors::registry::{self, Posture, ScratchDir};
use std::sync::Arc;
use workload::gdpr::{load_corpus, stable_corpus, GdprWorkloadKind};
use workload::ycsb::{ycsb_key, KvInterface, KvStoreYcsb, RelStoreYcsb, YcsbConfig};
use workload::{datagen, run_gdpr_workload, run_ycsb_workload};

/// Measured (label, ops/sec) bars.
pub type Bars = Vec<(String, f64)>;

/// YCSB-A throughput on a store carrying the same compliant posture the
/// GDPR connector uses (Fig 4's combined column).
fn ycsb_throughput(db: &str, records: u64, ops: u64, threads: usize) -> f64 {
    let scratch = ScratchDir::new("fig6");
    match db {
        "redis" => {
            let store = kv_store(Posture::COMPLIANT, &scratch);
            let adapter = KvStoreYcsb::new(Arc::clone(&store));
            for i in 0..records {
                adapter
                    .insert(&ycsb_key(i), &datagen::ycsb_value(i, 1000))
                    .expect("load");
            }
            store.start_expiration_driver();
            let report = run_ycsb_workload(
                Arc::new(adapter),
                YcsbConfig::workload('A'),
                records,
                ops,
                threads,
            );
            store.stop_expiration_driver();
            report.throughput_ops_per_sec()
        }
        _ => {
            let db_arc = rel_db(Posture::COMPLIANT, &scratch);
            let adapter = RelStoreYcsb::new(Arc::clone(&db_arc)).expect("usertable");
            for i in 0..records {
                adapter
                    .insert(&ycsb_key(i), &datagen::ycsb_value(i, 1000))
                    .expect("load");
            }
            let report = run_ycsb_workload(
                Arc::new(adapter),
                YcsbConfig::workload('A'),
                records,
                ops,
                threads,
            );
            report.throughput_ops_per_sec()
        }
    }
}

/// Mean GDPRbench throughput across the four workloads on a compliant store.
fn gdpr_throughput(db: &str, records: usize, ops: u64, threads: usize) -> f64 {
    let mut total = 0.0;
    for kind in GdprWorkloadKind::ALL {
        let scratch = ScratchDir::new("fig6");
        let handle = registry::build(db, &super::compliant_in(&scratch)).expect("open");
        let corpus = stable_corpus(records);
        load_corpus(handle.as_ref(), &corpus).expect("load");
        let report = run_gdpr_workload(Arc::clone(&handle), kind, corpus, ops, threads, false);
        total += report.throughput_ops_per_sec();
    }
    total / GdprWorkloadKind::ALL.len() as f64
}

/// Run the comparison for both stores.
pub fn run(records: usize, ops: u64, threads: usize) -> (ExperimentTable, Bars) {
    let mut bars = Bars::new();
    let mut table = ExperimentTable::new(
        "Figure 6 — YCSB vs GDPRbench throughput on compliant stores (log-scale in the paper)",
        &["series", "ops/s"],
    );
    for (label, value) in [
        (
            "YCSB on Redis",
            ycsb_throughput("redis", records as u64, ops, threads),
        ),
        (
            "GDPRbench on Redis",
            gdpr_throughput("redis", records, ops, threads),
        ),
        (
            // Beyond the paper: the engine's metadata index narrows (but
            // does not close) the YCSB-vs-GDPR gap on the key-value store.
            "GDPRbench on Redis+MI",
            gdpr_throughput("redis-mi", records, ops, threads),
        ),
        (
            "YCSB on PostgreSQL",
            ycsb_throughput("postgres", records as u64, ops, threads),
        ),
        (
            "GDPRbench on PostgreSQL",
            gdpr_throughput("postgres", records, ops, threads),
        ),
    ] {
        table.push_row(vec![label.to_string(), fmt_ops(value)]);
        bars.push((label.to_string(), value));
    }
    (table, bars)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 6 gap: GDPR workloads run orders of magnitude slower than
    /// YCSB on the same compliant store. At toy scale we require ≥5×.
    #[test]
    fn gdpr_throughput_is_far_below_ycsb() {
        let ycsb = ycsb_throughput("redis", 500, 2000, 2);
        let gdpr = gdpr_throughput("redis", 500, 100, 2);
        assert!(ycsb > 0.0 && gdpr > 0.0);
        assert!(
            ycsb > gdpr * 5.0,
            "expected a wide gap: ycsb={ycsb:.0} gdpr={gdpr:.0}"
        );
    }
}
