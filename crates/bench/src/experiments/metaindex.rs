//! Index-on vs index-off on the key-value backend: the paper's Figure 5
//! trade-off, isolated to single queries.
//!
//! The scan-based Redis connector answers READ-DATA-BY-USR and
//! READ-DATA-BY-PUR by walking the whole `rec:*` keyspace and parsing every
//! record — O(n) per query. With the engine's metadata index attached the
//! same queries resolve by inverted lookup plus per-match fetches —
//! O(matches). This module measures both paths on identical corpora so the
//! speedup is a number, not a claim; the `metaindex` criterion bench runs
//! the same comparison at 100 K records.

use crate::report::ExperimentTable;
use gdpr_core::{GdprConnector, GdprQuery, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::datagen;
use workload::gdpr::{load_corpus, stable_corpus};

/// Mean per-query latency of both paths for one query class.
#[derive(Debug, Clone)]
pub struct IndexedVsScan {
    pub query: &'static str,
    pub scan: Duration,
    pub indexed: Duration,
}

impl IndexedVsScan {
    /// How many times faster the indexed path is.
    pub fn speedup(&self) -> f64 {
        self.scan.as_secs_f64() / self.indexed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Build the two connectors over identical corpora. Plain store config
/// (no encryption/logging) so the measurement isolates scan-vs-index.
pub fn build_pair(
    records: usize,
) -> (
    Arc<connectors::RedisConnector>,
    Arc<connectors::RedisConnector>,
) {
    let corpus = stable_corpus(records);
    let scan = Arc::new(connectors::RedisConnector::new(
        kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
    ));
    load_corpus(scan.as_ref(), &corpus).expect("load scan corpus");
    let indexed = Arc::new(
        connectors::RedisConnector::with_metadata_index(
            kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
        )
        .expect("attach index"),
    );
    load_corpus(indexed.as_ref(), &corpus).expect("load indexed corpus");
    (scan, indexed)
}

/// The same pair over the disk-native pagestore backend: the scan path
/// walks B-tree leaves, unseals and parses every record per query
/// (through a buffer pool it may well overflow); the indexed path is the
/// same inverted lookup as on the kvstore. Both over one scratch
/// directory each, default pool (256 pages).
pub fn build_disk_pair(
    records: usize,
) -> (
    Arc<connectors::DiskConnector>,
    Arc<connectors::DiskConnector>,
) {
    use pagestore::{PageStore, PageStoreConfig};
    let open = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "gdpr-metaindex-{tag}-{}-{records}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PageStore::open(&dir, PageStoreConfig::default(), clock::wall()).expect("open pagestore")
    };
    let corpus = stable_corpus(records);
    let scan = Arc::new(connectors::DiskConnector::new(open("scan")));
    load_corpus(scan.as_ref(), &corpus).expect("load scan corpus");
    let indexed = Arc::new(
        connectors::DiskConnector::with_metadata_index(open("indexed")).expect("attach index"),
    );
    load_corpus(indexed.as_ref(), &corpus).expect("load indexed corpus");
    (scan, indexed)
}

fn mean_latency(
    conn: &dyn GdprConnector,
    session: &Session,
    query: &GdprQuery,
    samples: usize,
) -> Duration {
    // One warm-up execution keeps first-touch costs out of the mean.
    conn.execute(session, query).expect("warmup");
    let start = Instant::now();
    for _ in 0..samples {
        conn.execute(session, query).expect("query");
    }
    start.elapsed() / samples.max(1) as u32
}

/// Measure the two metadata query classes of the acceptance comparison on
/// both connector variants.
pub fn run(records: usize, samples: usize) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let (scan_conn, index_conn) = build_pair(records);
    measure(
        scan_conn.as_ref(),
        index_conn.as_ref(),
        records,
        samples,
        "Redis",
    )
}

/// The same comparison on the disk-native pagestore backend.
pub fn run_disk(records: usize, samples: usize) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let (scan_conn, index_conn) = build_disk_pair(records);
    measure(
        scan_conn.as_ref(),
        index_conn.as_ref(),
        records,
        samples,
        "disk",
    )
}

fn measure(
    scan_conn: &dyn GdprConnector,
    index_conn: &dyn GdprConnector,
    records: usize,
    samples: usize,
    backend: &str,
) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let corpus = stable_corpus(records);
    let probe = datagen::record_of(records / 2, &corpus);
    let user = probe.metadata.user.clone();
    // Two purpose probes with opposite selectivity: a *cohort* purpose
    // matches COHORT_SIZE records (the bounded-purpose shape the corpus
    // models for G5.1b group operations), while a *vocabulary* purpose like
    // "ads" matches a large constant fraction of the corpus. The index
    // turns O(n) into O(matches), so the first is the headline speedup and
    // the second its honest lower bound (matches ≈ n/4 caps the gain).
    let cohort_purpose = datagen::cohort_purpose_of(records / 2);
    let broad_purpose = probe
        .metadata
        .purposes
        .iter()
        .find(|p| !p.starts_with("cohort-"))
        .expect("records declare at least one vocabulary purpose")
        .clone();

    let cases: Vec<(&'static str, Session, GdprQuery)> = vec![
        (
            "read-data-by-usr",
            Session::customer(user.clone()),
            GdprQuery::ReadDataByUser(user),
        ),
        (
            "read-data-by-pur (cohort)",
            Session::processor(cohort_purpose.clone()),
            GdprQuery::ReadDataByPurpose(cohort_purpose),
        ),
        (
            "read-data-by-pur (broad)",
            Session::processor(broad_purpose.clone()),
            GdprQuery::ReadDataByPurpose(broad_purpose),
        ),
    ];

    let mut table = ExperimentTable::new(
        format!("Metadata index vs full scan on the {backend} backend ({records} records)"),
        &["query", "scan", "indexed", "speedup"],
    );
    let mut points = Vec::new();
    for (name, session, query) in cases {
        let scan = mean_latency(scan_conn, &session, &query, samples);
        let indexed = mean_latency(index_conn, &session, &query, samples);
        let point = IndexedVsScan {
            query: name,
            scan,
            indexed,
        };
        table.push_row(vec![
            name.to_string(),
            format!("{scan:.2?}"),
            format!("{indexed:.2?}"),
            format!("{:.1}x", point.speedup()),
        ]);
        points.push(point);
    }
    (table, points)
}

/// Records behind the `pred_read_*` rows: the `processor-mem` corpus of
/// the e2e benchmark.
pub const PRED_READ_RECORDS: usize = 20_000;

/// The processor's broad predicate reads on `redis-mi`, at the layer the
/// e2e benchmark's traced replay cannot see (its `TracedStore` does not
/// forward `RecordStore::fetch_many`, so its ledger shows the per-key
/// default loop the served engine no longer takes):
///
/// * `pred_read_obj_20k_us` / `pred_read_pur_20k_us` — one
///   READ-DATA-BY-OBJ (nearly every record is a candidate) / broad
///   READ-DATA-BY-PUR, one client, best of seven; smaller is better.
/// * `pred_read_clients2_speedup` — by-obj reads per second with two
///   clients over one client's (30 reads per client, best of three each):
///   what a second reader gains when the batches are answered under the
///   store's shared lock. Bigger is better; 2.0 is the ceiling on two
///   cores.
pub fn run_pred_reads() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let series = pred_reads(PRED_READ_RECORDS, 7, 30);
    let mut table = ExperimentTable::new(
        format!("Broad predicate reads on redis-mi ({PRED_READ_RECORDS} records)"),
        &["metric", "value"],
    );
    for (metric, value) in &series {
        table.push_row(vec![metric.to_string(), format!("{value:.2}")]);
    }
    (table, series)
}

fn pred_reads(records: usize, rounds: usize, reads_per_client: usize) -> Vec<(&'static str, f64)> {
    let conn = connectors::RedisConnector::with_metadata_index(
        kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
    )
    .expect("attach index");
    load_corpus(&conn, &stable_corpus(records)).expect("load corpus");
    let purpose = datagen::PURPOSES[0];
    let session = Session::processor(purpose);
    let by_obj = GdprQuery::ReadDataNotObjecting(purpose.into());
    let by_pur = GdprQuery::ReadDataByPurpose(purpose.into());
    let read = |query: &GdprQuery| {
        std::hint::black_box(conn.execute(&session, query).expect("predicate read"));
    };

    let best_us = |query: &GdprQuery| {
        read(query); // warm-up
        let once = || {
            let started = Instant::now();
            read(query);
            started.elapsed().as_secs_f64() * 1e6
        };
        (0..rounds).map(|_| once()).fold(f64::INFINITY, f64::min)
    };
    let reads_per_sec = |clients: usize| {
        let once = || {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| (0..reads_per_client).for_each(|_| read(&by_obj)));
                }
            });
            (clients * reads_per_client) as f64 / started.elapsed().as_secs_f64()
        };
        (0..3).map(|_| once()).fold(0.0, f64::max)
    };
    vec![
        ("pred_read_obj_20k_us", best_us(&by_obj)),
        ("pred_read_pur_20k_us", best_us(&by_pur)),
        (
            "pred_read_clients2_speedup",
            reads_per_sec(2) / reads_per_sec(1),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `bench_report` rows exist and are measurements; what they
    /// should read is the report's business, not a unit test's.
    #[test]
    fn pred_reads_report_three_rows() {
        let series = pred_reads(2_000, 2, 3);
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    /// The acceptance bar, at a scale small enough for the test suite: on
    /// selective predicates (a user's records, a bounded purpose) the
    /// indexed path must beat the full-scan path by ≥10×; on the broad
    /// vocabulary purpose — where matches ≈ n/4 bound the possible gain —
    /// it must still win outright. (At the criterion bench's 100 K records
    /// the selective gaps are far larger; 20 K already clears 10× with a
    /// wide margin because the scan parses every record per query.)
    #[test]
    fn indexed_reads_beat_scans_by_an_order_of_magnitude() {
        let _gate = crate::timing_gate();
        let (_, points) = run(20_000, 5);
        for point in points {
            let required = if point.query.contains("broad") {
                1.0
            } else {
                10.0
            };
            assert!(
                point.speedup() >= required,
                "{}: expected ≥{required}x, got {:.1}x (scan {:?}, indexed {:?})",
                point.query,
                point.speedup(),
                point.scan,
                point.indexed
            );
        }
    }

    /// The disk backend clears the same bar on its selective predicates:
    /// the scan path pays a full leaf walk with per-record unseal+parse
    /// per query, the indexed path only the inverted lookup plus
    /// O(matches) point fetches. The broad vocabulary purpose is the
    /// honest selectivity crossover: matches ≈ n/4 random descents
    /// through the buffer pool run neck-and-neck with one sequential
    /// leaf walk (~0.7–1.0×; a planner would pick the scan here), so the
    /// bound only pins that the indexed path isn't pathological, not
    /// that it wins. Smaller corpus than the kvstore test — the scan
    /// rounds are real page I/O.
    #[test]
    fn disk_indexed_reads_beat_scans() {
        let _gate = crate::timing_gate();
        let (_, points) = run_disk(8_000, 3);
        for point in points {
            let required = if point.query.contains("broad") {
                0.25
            } else {
                10.0
            };
            assert!(
                point.speedup() >= required,
                "{}: expected ≥{required}x, got {:.1}x (scan {:?}, indexed {:?})",
                point.query,
                point.speedup(),
                point.scan,
                point.indexed
            );
        }
    }

    /// Scan and indexed paths agree record-for-record on the disk
    /// backend too.
    #[test]
    fn disk_paths_agree_on_the_corpus() {
        let records = 2_000;
        let (scan_conn, index_conn) = build_disk_pair(records);
        let corpus = stable_corpus(records);
        let probe = datagen::record_of(17, &corpus);
        let user = probe.metadata.user.clone();
        let purpose = probe.metadata.purposes[0].clone();
        for (session, query) in [
            (
                Session::customer(user.clone()),
                GdprQuery::ReadDataByUser(user),
            ),
            (
                Session::processor(purpose.clone()),
                GdprQuery::ReadDataByPurpose(purpose),
            ),
        ] {
            let mut scan = scan_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            let mut indexed = index_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            scan.sort();
            indexed.sort();
            assert_eq!(scan, indexed, "divergence on {query:?}");
            assert!(!scan.is_empty(), "probe query should match something");
        }
    }

    /// Both paths return identical result sets on the benchmark corpus.
    #[test]
    fn both_paths_agree_on_the_corpus() {
        let records = 2_000;
        let (scan_conn, index_conn) = build_pair(records);
        let corpus = stable_corpus(records);
        let probe = datagen::record_of(17, &corpus);
        let user = probe.metadata.user.clone();
        let purpose = probe.metadata.purposes[0].clone();
        for (session, query) in [
            (
                Session::customer(user.clone()),
                GdprQuery::ReadDataByUser(user),
            ),
            (
                Session::processor(purpose.clone()),
                GdprQuery::ReadDataByPurpose(purpose),
            ),
        ] {
            let mut scan = scan_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            let mut indexed = index_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            scan.sort();
            indexed.sort();
            assert_eq!(scan, indexed, "divergence on {query:?}");
            assert!(!scan.is_empty(), "probe query should match something");
        }
    }
}
