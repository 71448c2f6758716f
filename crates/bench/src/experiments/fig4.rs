//! Figure 4: performance overhead of each GDPR security feature on the
//! traditional YCSB workloads.
//!
//! For each store and each of the [`COLUMNS`] (the stock baseline, each
//! feature of the compliant posture alone, all of them combined) every YCSB
//! workload A–F runs against a freshly loaded store; throughput is reported
//! normalized to the baseline. The paper measures Redis sinking to ~20%
//! (5×) and PostgreSQL to ~50% (2×) with everything enabled. A column's
//! store configs come from `connectors::registry`'s posture map; a kept AOF
//! or WAL lives in the cell's scratch dir.

use crate::report::{fmt_ops, fmt_pct, ExperimentTable};
use connectors::registry::{self, Posture, ScratchDir};
use kvstore::config::Storage;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use workload::ycsb::{ycsb_key, KvInterface, KvStoreYcsb, RelStoreYcsb, YcsbConfig};
use workload::{datagen, run_ycsb_workload};

/// Measured throughputs: `[workload][column] -> ops/sec`.
pub type Matrix = HashMap<&'static str, HashMap<&'static str, f64>>;

/// Figure 4's columns, named as the paper's legend names them.
pub const COLUMNS: [(&str, Posture); 5] = [
    ("baseline", Posture::STOCK),
    ("encrypt", Posture::ENCRYPT),
    ("ttl", Posture::TTL),
    ("log", Posture::LOG),
    ("combined", Posture::COMPLIANT),
];

/// The kvstore of `posture`, its AOF (if it keeps one) in `scratch`.
pub fn kv_store(posture: Posture, scratch: &ScratchDir) -> Arc<kvstore::KvStore> {
    let mut config = registry::kv_config(posture);
    if config.aof != Storage::Disabled {
        config.aof = Storage::File(scratch.join("redis.aof"));
    }
    kvstore::KvStore::open(config).expect("open kv")
}

/// The relstore of `posture`, its WAL (if it keeps one) in `scratch`.
pub fn rel_db(posture: Posture, scratch: &ScratchDir) -> Arc<relstore::Database> {
    let mut config = registry::rel_config(posture);
    if config.wal != Storage::Disabled {
        config.wal = Storage::File(scratch.join("postgres.wal"));
    }
    relstore::Database::open(config).expect("open rel")
}

fn load(adapter: &dyn KvInterface, records: u64, value_len: usize) {
    for i in 0..records {
        adapter
            .insert(&ycsb_key(i), &datagen::ycsb_value(i, value_len))
            .expect("load");
    }
}

/// Run one (store, posture, workload) cell and return throughput.
fn run_cell(
    db: &str,
    posture: Posture,
    config: YcsbConfig,
    records: u64,
    ops: u64,
    threads: usize,
) -> f64 {
    let scratch = ScratchDir::new("fig4");
    match db {
        "redis" => {
            let store = kv_store(posture, &scratch);
            let adapter = KvStoreYcsb::new(Arc::clone(&store));
            load(&adapter, records, config.value_len);
            if posture.contains(Posture::TTL) {
                // Give every record an expiry so the strict sweep has a full
                // expire-set to walk, then run the background driver — the
                // configuration whose cost the paper measures. Loading goes
                // through the adapter first so the store layout (including
                // the scan index) is identical to every other cell.
                for i in 0..records {
                    store
                        .expire(ycsb_key(i).as_bytes(), Duration::from_secs(24 * 3600))
                        .expect("expire");
                }
                store.start_expiration_driver();
            }
            let report = run_ycsb_workload(Arc::new(adapter), config, records, ops, threads);
            store.stop_expiration_driver();
            report.throughput_ops_per_sec()
        }
        "postgres" => {
            let db = rel_db(posture, &scratch);
            let run_ttl = posture.contains(Posture::TTL);
            let adapter = if run_ttl {
                // Rows carry the paper's expiry column (set far in the
                // future so the 1-second sweep daemon scans but reaps
                // nothing mid-run).
                let far = db.clock().now().as_millis() + 24 * 3600 * 1000;
                RelStoreYcsb::with_expiry_column(Arc::clone(&db), far).expect("usertable")
            } else {
                RelStoreYcsb::new(Arc::clone(&db)).expect("usertable")
            };
            load(&adapter, records, config.value_len);
            let mut daemon = run_ttl.then(|| {
                let mut d = relstore::ttl::TtlDaemon::new(
                    Arc::clone(&db),
                    vec![relstore::ttl::SweepTarget {
                        table: "usertable".into(),
                        expiry_column: "expiry".into(),
                    }],
                );
                d.start();
                d
            });
            let report = run_ycsb_workload(Arc::new(adapter), config, records, ops, threads);
            if let Some(d) = daemon.as_mut() {
                d.stop();
            }
            report.throughput_ops_per_sec()
        }
        other => panic!("unknown db {other}"),
    }
}

/// Run the full matrix for one store.
pub fn run(db: &str, records: u64, ops: u64, threads: usize) -> (ExperimentTable, Matrix) {
    let mut matrix: Matrix = HashMap::new();
    for config in YcsbConfig::all() {
        let row = matrix.entry(config.name).or_default();
        for (name, posture) in COLUMNS {
            let tput = run_cell(db, posture, config.clone(), records, ops, threads);
            row.insert(name, tput);
        }
    }

    let mut table = ExperimentTable::new(
        format!(
            "Figure 4{} — GDPR feature overhead on YCSB ({db})",
            if db == "redis" { "a" } else { "b" }
        ),
        &[
            "workload",
            "baseline ops/s",
            "encrypt",
            "ttl",
            "log",
            "combined",
        ],
    );
    for config in YcsbConfig::all() {
        let row = &matrix[config.name];
        let baseline = row["baseline"];
        table.push_row(vec![
            config.name.to_string(),
            fmt_ops(baseline),
            fmt_pct(row["encrypt"], baseline),
            fmt_pct(row["ttl"], baseline),
            fmt_pct(row["log"], baseline),
            fmt_pct(row["combined"], baseline),
        ]);
    }
    (table, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-scale smoke: every cell runs and the combined configuration is
    /// slower than baseline for the write-heavy workload A on Redis.
    #[test]
    fn combined_features_cost_throughput_on_redis() {
        let baseline = run_cell(
            "redis",
            Posture::STOCK,
            YcsbConfig::workload('A'),
            500,
            3000,
            2,
        );
        let combined = run_cell(
            "redis",
            Posture::COMPLIANT,
            YcsbConfig::workload('A'),
            500,
            3000,
            2,
        );
        assert!(baseline > 0.0 && combined > 0.0);
        assert!(
            combined < baseline,
            "combined ({combined:.0}) should be slower than baseline ({baseline:.0})"
        );
    }

    #[test]
    fn postgres_cells_run_with_all_features() {
        for (name, posture) in COLUMNS {
            let tput = run_cell("postgres", posture, YcsbConfig::workload('B'), 300, 600, 2);
            assert!(tput > 0.0, "{name} produced no throughput");
        }
    }
}
