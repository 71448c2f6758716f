//! End-to-end benchmark smoke: GDPRbench's three metrics come out sane on
//! every connector at small scale, and the YCSB engine drives both stores.

use gdprbench_repro::gdpr_core::GdprConnector;
use gdprbench_repro::workload::gdpr::{load_corpus, stable_corpus, GdprWorkloadKind};
use gdprbench_repro::workload::ycsb::{
    ycsb_key, KvInterface, KvStoreYcsb, RelStoreYcsb, YcsbConfig,
};
use gdprbench_repro::workload::{datagen, run_gdpr_workload, run_ycsb_workload};
use std::sync::Arc;

fn fresh(db: &str) -> Arc<dyn GdprConnector> {
    match db {
        "redis" => Arc::new(gdprbench_repro::connectors::RedisConnector::new(
            gdprbench_repro::kvstore::KvStore::open(Default::default()).unwrap(),
        )),
        "postgres" => Arc::new(
            gdprbench_repro::connectors::PostgresConnector::new(
                gdprbench_repro::relstore::Database::open(Default::default()).unwrap(),
            )
            .unwrap(),
        ),
        _ => Arc::new(
            gdprbench_repro::connectors::PostgresConnector::with_metadata_indices(
                gdprbench_repro::relstore::Database::open(Default::default()).unwrap(),
            )
            .unwrap(),
        ),
    }
}

/// Correctness ≥99% for every (connector, workload) pair — the benchmark's
/// first metric, with the oracle in lock-step.
#[test]
fn correctness_holds_across_the_matrix() {
    for db in ["redis", "postgres", "postgres-mi"] {
        for kind in GdprWorkloadKind::ALL {
            let conn = fresh(db);
            let corpus = stable_corpus(400);
            load_corpus(conn.as_ref(), &corpus).unwrap();
            let report = run_gdpr_workload(conn, kind, corpus, 150, 1, true);
            let correctness = report.correctness.unwrap();
            assert!(
                correctness >= 0.99,
                "{db}/{}: correctness {correctness}",
                kind.name()
            );
            assert_eq!(report.operations, 150);
            assert!(report.space.overhead_factor() > 1.0);
        }
    }
}

/// Multi-threaded runs complete and report completion time > 0 with the
/// per-query breakdown covering the workload's query classes.
#[test]
fn multithreaded_run_reports_per_query_stats() {
    let conn = fresh("postgres-mi");
    let corpus = stable_corpus(400);
    load_corpus(conn.as_ref(), &corpus).unwrap();
    let report = run_gdpr_workload(conn, GdprWorkloadKind::Regulator, corpus, 400, 4, false);
    assert!(report.completion.as_nanos() > 0);
    for query in ["read-metadata-by-usr", "get-system-logs", "verify-deletion"] {
        assert!(
            report.per_query.contains_key(query),
            "missing per-query stats for {query}: {:?}",
            report.per_query.keys().collect::<Vec<_>>()
        );
    }
    assert!(report.per_query["verify-deletion"].latency.p99_ns() > 0);
}

/// The YCSB engine runs its full workload suite on both adapters without a
/// single operation error.
#[test]
fn ycsb_suite_clean_on_both_stores() {
    for config in YcsbConfig::all() {
        let kv =
            KvStoreYcsb::new(gdprbench_repro::kvstore::KvStore::open(Default::default()).unwrap());
        for i in 0..200 {
            kv.insert(&ycsb_key(i), &datagen::ycsb_value(i, 100))
                .unwrap();
        }
        let report = run_ycsb_workload(Arc::new(kv), config.clone(), 200, 400, 2);
        assert_eq!(report.errors, 0, "kvstore workload {}", config.name);

        let rel = RelStoreYcsb::new(
            gdprbench_repro::relstore::Database::open(Default::default()).unwrap(),
        )
        .unwrap();
        for i in 0..200 {
            rel.insert(&ycsb_key(i), &datagen::ycsb_value(i, 100))
                .unwrap();
        }
        let report = run_ycsb_workload(Arc::new(rel), config.clone(), 200, 400, 2);
        assert_eq!(report.errors, 0, "relstore workload {}", config.name);
    }
}
